package node

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/transport"
)

// This file implements release-side VAL coalescing over inline-polling
// transports: back-to-back commits stage their VAL/VAL_C/VAL_P broadcasts and
// the next outbound message (or a short ticker) flushes the stage as one
// KindValBatch frame — one encode, one fan-out, instead of one per
// commit. Reordering a VAL behind later traffic is safe — the glb_*
// advances are monotonic and the RDLock release is owner-matched — but
// flushing before every send keeps the per-peer streams FIFO anyway, so
// followers observe exactly the pre-batching order.

// valEntryBytes is the packed size of one staged validation; the
// layout is the shared codec in ddp (AppendValEntry/DecodeValEntry).
const valEntryBytes = ddp.ValEntrySize

// valFlushEvery bounds how long a staged validation can wait for a
// piggyback: an idle coordinator's last VAL still reaches followers
// (and releases their read stalls) within one tick.
const valFlushEvery = 500 * time.Microsecond

// valStage accumulates staged validations. Non-nil on a node only when
// the transport polls inline. The flush broadcasts while holding mu and
// reuses the buffer the moment Broadcast returns, which the Transport
// contract allows.
type valStage struct {
	mu    sync.Mutex
	buf   []byte
	count int
	// staged mirrors count atomically so the ack-wait spin loop can poll
	// "anything to flush?" without bouncing the mutex on every round.
	staged atomic.Int32
}

// stageVal appends one validation to the stage. Only called for
// full-cluster fan-outs (the flush broadcasts); reduced follower sets
// take the per-peer send path in sendVal.
func (n *Node) stageVal(kind ddp.MsgKind, key ddp.Key, ts ddp.Timestamp, sc ddp.ScopeID) {
	s := n.vals
	s.mu.Lock()
	s.buf = ddp.AppendValEntry(s.buf, kind, key, ts, sc)
	s.count++
	s.staged.Store(int32(s.count))
	s.mu.Unlock()
	n.valsStaged.Add(1)
}

// flushVals broadcasts anything staged. Called at the top of every send
// path (FIFO with later traffic), from the ack-wait spin loop (a
// waiting coordinator must not sit on the releases its peers need),
// and from the ticker (bounded latency when idle).
//
//minos:hotpath
func (n *Node) flushVals() {
	s := n.vals
	if s == nil || s.staged.Load() == 0 {
		return
	}
	s.mu.Lock()
	if s.count > 0 {
		n.broadcastValsLocked(s)
	}
	s.mu.Unlock()
}

// broadcastValsLocked ships the stage and resets it; caller holds s.mu.
// Holding the lock across Broadcast is deliberate: the buffer is free
// for reuse once Broadcast returns, and serializing flushes keeps
// batches FIFO between themselves. A single-entry stage unwraps to the
// plain message — the common case under serial load, where every
// write's send flushes its predecessor's VAL and batching only wins
// when commits genuinely overlap.
func (n *Node) broadcastValsLocked(s *valStage) {
	if s.count == 1 {
		m := ddp.DecodeValEntry(s.buf)
		m.From = n.id
		m.Size = ddp.ControlSize()
		_ = n.tr.Broadcast(transport.Frame{Kind: transport.FrameMessage, Msg: m})
	} else {
		_ = n.tr.Broadcast(transport.Frame{Kind: transport.FrameMessage, Msg: ddp.Message{
			Kind:  ddp.KindValBatch,
			From:  n.id,
			Value: s.buf,
			Size:  ddp.DataSize(len(s.buf)),
		}})
		n.valBatches.Add(1)
	}
	s.buf = s.buf[:0]
	s.count = 0
	s.staged.Store(0)
}

// handleValBatch unpacks a coalesced validation frame and routes each
// entry through the normal dispatch, exactly as if it had arrived
// alone. Decoding walks the borrowed frame value in place; every
// per-entry handler runs to completion before the next decode, so
// nothing outlives the callback.
func (n *Node) handleValBatch(m ddp.Message) {
	b := m.Value
	for len(b) >= valEntryBytes {
		e := ddp.DecodeValEntry(b)
		e.From = m.From
		e.Size = ddp.ControlSize()
		n.handleMessage(e)
		b = b[valEntryBytes:]
	}
}

// valFlushLoop is the staged-VAL latency bound: an idle coordinator's
// stage drains within valFlushEvery even if it never sends again.
func (n *Node) valFlushLoop() {
	defer n.wg.Done()
	ticker := time.NewTicker(valFlushEvery)
	defer ticker.Stop()
	for {
		select {
		case <-n.stop:
			// Final best-effort flush; the transport may already be
			// closing, in which case followers are shutting down too.
			n.flushVals()
			return
		case <-ticker.C:
			n.flushVals()
		}
	}
}
