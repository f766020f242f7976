package ddp

import "fmt"

// MsgKind enumerates the DDP protocol message vocabulary (§II, Table I
// type check 4a). Scope-model messages carry a non-zero Scope field and
// correspond to the paper's [·]sc notation.
type MsgKind uint8

const (
	// KindInv invalidates (and carries the new data for) a record at a
	// Follower. Sent by the Coordinator for every client-write.
	KindInv MsgKind = iota
	// KindAck is the combined consistency+persistency acknowledgment
	// used by <Lin, Synch>.
	KindAck
	// KindAckC acknowledges that the volatile replica is updated.
	KindAckC
	// KindAckP acknowledges that the replica is persisted.
	KindAckP
	// KindVal is the combined validation marking transaction completion
	// (<Lin, Synch> and <Lin, REnf>).
	KindVal
	// KindValC validates consistency (Strict, Event, Scope).
	KindValC
	// KindValP validates persistency (Strict, Scope PERSIST).
	KindValP
	// KindPersist is the Scope model's [PERSIST]sc request asking
	// Followers to persist every write in a scope.
	KindPersist
	// KindValBatch carries several release-side validations (VAL/VAL_C/
	// VAL_P) from back-to-back commits in one frame. Nodes over
	// inline-polling transports coalesce them so consecutive single-key transactions
	// share one encode+broadcast; the receiver unpacks and handles each
	// entry as if it had arrived alone.
	KindValBatch

	numMsgKinds
)

var msgKindNames = [numMsgKinds]string{
	"INV", "ACK", "ACK_C", "ACK_P", "VAL", "VAL_C", "VAL_P", "PERSIST",
	"VAL_BATCH",
}

func (k MsgKind) String() string {
	if int(k) < len(msgKindNames) {
		return msgKindNames[k]
	}
	return fmt.Sprintf("MsgKind(%d)", uint8(k))
}

// Valid reports whether k is a legal message kind (Table I, check 4a).
func (k MsgKind) Valid() bool { return k < numMsgKinds }

// ScopeID identifies a persistency scope for the <Lin, Scope> model.
// Zero means "no scope".
type ScopeID uint64

// Key identifies a data record in MINOS-KV.
type Key uint64

// Hash spreads dense keys across power-of-two shard counts (Fibonacci
// multiplicative hashing). Every layer that stripes by key — the KV
// store, the NVM log and its drain queues, the node's transaction table
// and dispatch workers — derives its shard index from the same hash so
// the striping behaves identically across layers.
func (k Key) Hash() uint64 { return uint64(k) * 0x9E3779B97F4A7C15 }

// Message is a DDP protocol message. One struct covers all kinds; unused
// fields are zero. Size is the modeled wire size in bytes; the simulator
// charges bandwidth for it and the live transport encodes Value.
type Message struct {
	Kind  MsgKind
	From  NodeID
	Key   Key
	TS    Timestamp
	Scope ScopeID
	Value []byte
	Size  int

	// Batched marks a MINOS-O batched INV/ACK crossing the host–SmartNIC
	// PCIe boundary once on behalf of all followers.
	Batched bool
	// Dests lists destination nodes for a batched or broadcast message.
	Dests []NodeID

	// ArriveNs is simulation bookkeeping: the simulated time the message
	// entered the receiver's queue, used for the paper's communication /
	// computation accounting (§IV). The live transport ignores it.
	ArriveNs int64
}

// HeaderBytes is the modeled size of a protocol message without payload.
const HeaderBytes = 64

// ControlSize returns the modeled size of a payload-less message
// (ACKs, VALs, PERSISTs).
func ControlSize() int { return HeaderBytes }

// DataSize returns the modeled size of a data-carrying message (INV).
func DataSize(valueLen int) int { return HeaderBytes + valueLen }

func (m Message) String() string {
	s := fmt.Sprintf("%s from=%d key=%d ts=%v", m.Kind, m.From, m.Key, m.TS)
	if m.Scope != 0 {
		s += fmt.Sprintf(" sc=%d", m.Scope)
	}
	return s
}
