// Package ddp defines the vocabulary of the MINOS Distributed Data
// Persistency protocols: logical timestamps, per-record metadata and
// locks, the protocol message set, and the per-model policy tables that
// express how the five <Linearizable, persistency> combinations differ
// from one another (paper §II–III, Figures 1–3).
//
// Both runtimes consume this package: the live MINOS-B node
// (internal/node) and the simulated MINOS-B/MINOS-O clusters
// (internal/simcluster), as well as the explicit-state
// model checker (internal/check). Keeping the semantics here means a
// correctness argument about one runtime transfers to the others.
package ddp

import "fmt"

// NodeID identifies a node in the cluster. IDs are dense, starting at 0.
type NodeID int32

// Version is the per-record monotonically increasing version counter
// component of a timestamp.
type Version int64

// Timestamp is the paper's logical timestamp (Fig 1(b)): a
// <node_id, version> tuple. Writes to the same record are ordered from
// older to newer by version, ties broken by node ID.
type Timestamp struct {
	Node    NodeID
	Version Version
}

// NoOwner is the released state of RDLock_Owner, the paper's <-1, -1>.
var NoOwner = Timestamp{Node: -1, Version: -1}

// Less reports whether t is older than o.
func (t Timestamp) Less(o Timestamp) bool {
	if t.Version != o.Version {
		return t.Version < o.Version
	}
	return t.Node < o.Node
}

// LessEq reports whether t is older than or equal to o.
func (t Timestamp) LessEq(o Timestamp) bool { return !o.Less(t) }

// IsNoOwner reports whether t is the released-lock sentinel.
func (t Timestamp) IsNoOwner() bool { return t == NoOwner }

func (t Timestamp) String() string {
	return fmt.Sprintf("<%d,%d>", t.Node, t.Version)
}

// Max returns the newer of a and b.
func Max(a, b Timestamp) Timestamp {
	if a.Less(b) {
		return b
	}
	return a
}

// Meta is the metadata attached to every data record (Fig 1(a)).
//
//   - RDLockOwner: which client-write (by its TS_WR) holds the read lock;
//     NoOwner when free. A taken RDLock blocks read transactions.
//   - WRLock: guards local-writes to the record's volatile copy
//     (MINOS-B only; MINOS-O eliminates it via the vFIFO).
//   - VolatileTS: version of the record in local volatile memory.
//   - GlbVolatileTS: newest version known to be visible machine-wide
//     (consistency enforced across all replicas).
//   - GlbDurableTS: newest version known to be durable machine-wide
//     (persistency enforced across all replicas).
type Meta struct {
	RDLockOwner   Timestamp
	WRLock        bool
	VolatileTS    Timestamp
	GlbVolatileTS Timestamp
	GlbDurableTS  Timestamp
}

// NewMeta returns record metadata in its initial state: lock free,
// all timestamps at the zero version of node 0.
func NewMeta() Meta {
	return Meta{RDLockOwner: NoOwner}
}

// Obsolete implements the paper's Obsolete(TS_WR) primitive: it reports
// whether a client-write carrying ts has been superseded by a newer
// update already applied to the local volatile record.
func (m *Meta) Obsolete(ts Timestamp) bool { return ts.Less(m.VolatileTS) }

// SnatchOutcome is the result of a Snatch RDLock operation.
type SnatchOutcome int

const (
	// SnatchAcquired means the lock was free and ts took it.
	SnatchAcquired SnatchOutcome = iota
	// SnatchStolen means ts took the lock from an older in-flight write.
	SnatchStolen
	// SnatchYielded means a younger write already holds the lock; ts
	// proceeds without ownership.
	SnatchYielded
)

// SnatchRDLock implements the paper's "Snatch RDLock" (§III-B):
// (i) if the lock is free, ts grabs it; (ii) if it is held by an older
// write, ts snatches it; (iii) if it is held by a younger write, ts
// continues without the lock. The youngest concurrent write transaction
// to a record owns its RDLock, and only the owner may release it.
func (m *Meta) SnatchRDLock(ts Timestamp) SnatchOutcome {
	switch {
	case m.RDLockOwner.IsNoOwner():
		m.RDLockOwner = ts
		return SnatchAcquired
	case m.RDLockOwner.Less(ts):
		m.RDLockOwner = ts
		return SnatchStolen
	default:
		return SnatchYielded
	}
}

// ReleaseRDLockIfOwner releases the RDLock if ts still owns it, returning
// whether it did. A write that had its lock snatched must not release.
func (m *Meta) ReleaseRDLockIfOwner(ts Timestamp) bool {
	if m.RDLockOwner != ts {
		return false
	}
	m.RDLockOwner = NoOwner
	return true
}

// RDLocked reports whether some write currently holds the read lock,
// blocking read transactions.
func (m *Meta) RDLocked() bool { return !m.RDLockOwner.IsNoOwner() }

// ApplyVolatile records that the local volatile copy now holds ts.
// The caller must have established that ts is not obsolete.
func (m *Meta) ApplyVolatile(ts Timestamp) {
	if ts.Less(m.VolatileTS) {
		panic(fmt.Sprintf("ddp: volatileTS moving backwards: %v -> %v", m.VolatileTS, ts))
	}
	m.VolatileTS = ts
}

// AdvanceGlbVolatile monotonically advances glb_volatileTS to ts.
func (m *Meta) AdvanceGlbVolatile(ts Timestamp) {
	m.GlbVolatileTS = Max(m.GlbVolatileTS, ts)
}

// AdvanceGlbDurable monotonically advances glb_durableTS to ts.
func (m *Meta) AdvanceGlbDurable(ts Timestamp) {
	m.GlbDurableTS = Max(m.GlbDurableTS, ts)
}

// ConsistencyDone reports whether the update observed at obs (the
// volatileTS snapshot that made some write obsolete) has completed
// consistency-wise: ConsistencySpin spins until this holds.
func (m *Meta) ConsistencyDone(obs Timestamp) bool {
	return obs.LessEq(m.GlbVolatileTS)
}

// PersistencyDone reports whether the update observed at obs has
// completed persistency-wise: PersistencySpin spins until this holds.
func (m *Meta) PersistencyDone(obs Timestamp) bool {
	return obs.LessEq(m.GlbDurableTS)
}
