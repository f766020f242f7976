package node

import (
	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/obs"
	"github.com/minos-ddp/minos/internal/offload"
)

// This file splices the soft-NIC offload engine (internal/offload)
// into the live node: the routing gate on the delivery path and the
// NIC handler the engine's core pool runs. The invariants the host path
// establishes survive the split unchanged (DESIGN.md D13):
//
//   - Per-record ordering: a key is owned by exactly one side at a
//     time. Promotion needs no fence — the delivery goroutine has run
//     every earlier message to completion before Route sees the next —
//     demotion waits for the NIC core to drain, and a key always maps
//     to the same core, so messages for one record are handled in
//     transport order on whichever side owns it.
//   - Persist-before-ack: a NIC core runs the same persistThenAck as
//     the host, into the same pipeline (the one dFIFO), so the ack
//     leaves only after the group commit holding its update. The
//     pipeline is one FIFO, so persist order matches handling order
//     across promotion and demotion alike.

// offloadable reports whether m may be routed to the NIC pool: the
// key-carrying protocol messages. Scope-control messages ([ACK_P]sc,
// [VAL_P]sc: scope set, zero timestamp) stay host-side with the scope
// flush machinery, as do [PERSIST]sc and the coalesced VAL batches
// (their entries are plain VAL applies, safe on either side — see
// handleValBatch).
//
//minos:hotpath
func offloadable(m ddp.Message) bool {
	switch m.Kind {
	case ddp.KindInv, ddp.KindAck, ddp.KindAckC, ddp.KindVal, ddp.KindValC:
		return true
	case ddp.KindAckP, ddp.KindValP:
		return m.Scope == 0 || m.TS != (ddp.Timestamp{})
	}
	return false
}

// handleOffloaded runs one protocol message on a NIC core (the
// engine's Handler callback). enq is the vFIFO admission timestamp (0
// unless tracing stamped it). An INV's deferred persist goes to the
// drain worker: committing per NIC message shrank the group commits.
func (n *Node) handleOffloaded(m ddp.Message, enq int64) {
	if n.commitInline && m.Kind == ddp.KindInv {
		defer n.pipe.Wake()
	}
	if enq != 0 && n.tracer.Enabled() && n.tracer.SampleTxn(uint64(m.TS.Version)) {
		n.handleOffloadedTraced(m, enq)
		return
	}
	n.handleMessage(m)
}

// handleOffloadedTraced wraps the NIC dispatch in the two offload
// trace phases: vFIFO residency (nic_queue) and the on-core handling
// (nic_handle). Followers correlate spans by (Key, Ver), like the
// persist spans.
func (n *Node) handleOffloadedTraced(m ddp.Message, enq int64) {
	start := n.tracer.Now()
	role := obs.RoleFollower
	switch m.Kind {
	case ddp.KindAck, ddp.KindAckC, ddp.KindAckP:
		role = obs.RoleCoordinator
	}
	n.tracer.Record(obs.Span{
		Key: uint64(m.Key), Ver: int64(m.TS.Version), Node: int32(n.id),
		Role: role, Phase: obs.PhaseNICQueue,
		Start: enq, End: start,
	})
	n.handleMessage(m)
	n.tracer.Record(obs.Span{
		Key: uint64(m.Key), Ver: int64(m.TS.Version), Node: int32(n.id),
		Role: role, Phase: obs.PhaseNICHandle,
		Start: start, End: n.tracer.Now(),
	})
}

// Offload exposes the soft-NIC engine (nil when offload is disabled);
// tests and tools read its counters.
func (n *Node) Offload() *offload.Engine { return n.off }
