package node

import (
	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/kv"
)

// handleMessage dispatches one protocol message. It runs wherever the
// message's key is currently owned — the delivery goroutine
// (handleFrame) or a soft-NIC core — and either way messages for one
// record arrive here in transport order; handlers never block on a
// condition that only a later same-key message can satisfy: an INV
// that must wait for its superseder parks a waiter on the record, which
// the superseder's VAL fires. Both placements run the same handlers,
// persists included.
//
//minos:hotpath
func (n *Node) handleMessage(m ddp.Message) {
	switch m.Kind {
	case ddp.KindInv:
		n.handleInv(m)
	case ddp.KindAck, ddp.KindAckC, ddp.KindAckP:
		if m.Kind == ddp.KindAckP && m.Scope != 0 && m.TS == (ddp.Timestamp{}) {
			n.handleScopeAck(m)
			return
		}
		n.handleAck(m.Key, m.TS, m.Kind, m.From)
	case ddp.KindVal, ddp.KindValC, ddp.KindValP:
		if m.Kind == ddp.KindValP && m.Scope != 0 && m.TS == (ddp.Timestamp{}) {
			n.scopeDurable(m.Scope)
			return
		}
		n.handleVal(m)
	case ddp.KindPersist:
		n.handlePersist(m)
	case ddp.KindValBatch:
		n.handleValBatch(m)
	}
}

// handleInv is the Follower algorithm (Fig 2 L26-40, Fig 3 deltas).
func (n *Node) handleInv(m ddp.Message) {
	if !n.applyInv(m) {
		return
	}
	switch n.policy.FollowerPersist {
	case ddp.PersistBeforeAck: // Synch: persist (L39), combined ACK (L40)
		n.persistThenAck(m)
	case ddp.PersistAfterAckC: // Strict, REnf: ACK_C, then persist and ACK_P
		n.sendAck(m, ddp.KindAckC)
		n.persistThenAck(m)
	case ddp.PersistBackground: // Event
		n.sendAck(m, ddp.KindAckC)
		n.pipe.Enqueue(m.Key, m.TS, m.Value, m.Scope)
	case ddp.PersistOnScopeFlush: // Scope
		n.bufferScope(m.Scope, m.Key, m.TS, m.Value)
		n.sendAck(m, ddp.KindAckC)
	}
}

// applyInv is the volatile half of the Follower algorithm (Fig 2
// L26-37): the obsolete check, the RDLock snatch, the publish. The
// record mutex is the WRLock (L32, L36): the publish happens in the
// same hold as the check, so the INV cannot turn obsolete in between
// (L33, L37). A false return means the INV took the obsolete path,
// whose acknowledgments obsoleteAck sends.
//
//minos:hotpath
func (n *Node) applyInv(m ddp.Message) bool {
	n.Stats.InvsHandled.Add(1)
	r := n.store.GetOrCreate(m.Key)

	r.Lock()
	if r.Meta.Obsolete(m.TS) { // L27
		n.obsoleteAck(r, kv.Waiter{
			Until: kv.UntilConsistent, Obs: r.Meta.VolatileTS,
			TS: m.TS, Scope: m.Scope, To: m.From,
		})
		return false
	}
	r.SnatchRDLock(m.TS)     // L31
	r.Publish(m.Value, m.TS) // L34-35: update LLC (seqlocked)
	r.Unlock()
	return true
}

// obsoleteAck acknowledges an obsolete INV (Fig 2 L27-30) as far as r's
// metadata allows: ACK_C (split-ack models) once the superseder w.Obs is
// consistent (L28), then Synch's ACK, or ACK_P where the model spins on
// it, once w.Obs is durable (L29). A stage that cannot finish yet parks
// w, and the release that finishes it fires w back here. The INV never
// took the RDLock (it left before L31). The caller holds r's lock;
// obsoleteAck releases it.
func (n *Node) obsoleteAck(r *kv.Record, w kv.Waiter) {
	m := ddp.Message{Key: r.Key, TS: w.TS, Scope: w.Scope, From: w.To}
	ackC := false
	if w.Until == kv.UntilConsistent {
		if !r.Meta.ConsistencyDone(w.Obs) { // L28
			n.park(r, w)
			r.Unlock()
			return
		}
		w.Until = kv.UntilDurable
		ackC = n.policy.SeparateAcks
	}
	spinP := !n.policy.SeparateAcks || n.policy.PersistencySpinOnObsolete && n.policy.TracksPersistency
	durable := spinP && r.Meta.PersistencyDone(w.Obs) // L29
	if spinP && !durable {
		n.park(r, w)
	}
	r.Unlock()
	if ackC {
		n.sendAck(m, ddp.KindAckC)
	}
	switch {
	case !durable:
	case n.policy.SeparateAcks:
		n.sendAck(m, ddp.KindAckP)
	default:
		n.sendAck(m, ddp.KindAck)
	}
}

func (n *Node) sendAck(m ddp.Message, kind ddp.MsgKind) {
	n.send(m.From, ddp.Message{
		Kind: kind, Key: m.Key, TS: m.TS, Scope: m.Scope,
		Size: ddp.ControlSize(),
	})
}

// handleVal applies a VAL/VAL_C/VAL_P at a follower (Fig 2 L41-44) and
// fires the waiters its release satisfies.
func (n *Node) handleVal(m ddp.Message) {
	r := n.store.GetOrCreate(m.Key)
	r.Lock()
	switch m.Kind {
	case n.policy.FollowerReleaseKind:
		r.Meta.AdvanceGlbVolatile(m.TS)
		if m.Kind == ddp.KindVal && n.policy.ValAfterDurable {
			r.Meta.AdvanceGlbDurable(m.TS)
		}
		r.ReleaseRDLockIfOwner(m.TS)
	case ddp.KindValP:
		r.Meta.AdvanceGlbDurable(m.TS)
	}
	r.Unlock()
	n.fire(r, false)
}
