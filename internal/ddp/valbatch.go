package ddp

import "encoding/binary"

// Wire codec for one coalesced-validation entry, the element of a
// KindValBatch frame's payload (the release-side VAL coalescing over
// inline-polling transports). The layout is fixed little-endian:
// kind (u8) | key (u64) | ts.Node (i64) | ts.Version (i64) | scope (u64).
// It lives here, beside the rest of the message vocabulary, so the
// node's batcher and the transport fuzzers exercise one codec instead
// of two private copies.

// ValEntrySize is the packed size of one staged validation.
const ValEntrySize = 1 + 8 + 8 + 8 + 8

// AppendValEntry appends one packed validation entry to b.
func AppendValEntry(b []byte, kind MsgKind, key Key, ts Timestamp, sc ScopeID) []byte {
	b = append(b, byte(kind))
	b = binary.LittleEndian.AppendUint64(b, uint64(key))
	b = binary.LittleEndian.AppendUint64(b, uint64(ts.Node))
	b = binary.LittleEndian.AppendUint64(b, uint64(ts.Version))
	b = binary.LittleEndian.AppendUint64(b, uint64(sc))
	return b
}

// DecodeValEntry unpacks the validation entry at the front of b, which
// must hold at least ValEntrySize bytes. The entry's From and Size are
// the caller's to fill (they come from the enclosing batch frame).
func DecodeValEntry(b []byte) Message {
	return Message{
		Kind: MsgKind(b[0]),
		Key:  Key(binary.LittleEndian.Uint64(b[1:])),
		TS: Timestamp{
			Node:    NodeID(binary.LittleEndian.Uint64(b[9:])),
			Version: Version(binary.LittleEndian.Uint64(b[17:])),
		},
		Scope: ScopeID(binary.LittleEndian.Uint64(b[25:])),
	}
}
