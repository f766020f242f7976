package node

import (
	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/kv"
)

// handleMessage dispatches one protocol message. It runs wherever the
// message's key is currently owned — the delivery goroutine
// (handleFrame) or a soft-NIC core — and either way messages for one
// record arrive here in transport order; handlers must not block on
// conditions that only a later same-key message can satisfy (the
// obsolete spins are punted to their own goroutines for exactly that
// reason). Both placements run the same handlers, persists included.
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
			n.handleScopeValP(m)
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
// L26-37): the obsolete checks, the RDLock snatch, the WRLock-guarded
// publish. A false return means the INV took the obsolete path (the
// spawned spin owns the acknowledgment) or the node closed mid-apply.
//
//minos:hotpath
func (n *Node) applyInv(m ddp.Message) bool {
	n.Stats.InvsHandled.Add(1)
	r := n.store.GetOrCreate(m.Key)

	r.Lock()
	if r.Meta.Obsolete(m.TS) { // L27
		r.Unlock()
		n.spawnObsolete(r, m)
		return false
	}
	r.SnatchRDLock(m.TS) // L31

	for r.Meta.WRLock { // L32
		if n.closed.Load() {
			r.Unlock()
			return false
		}
		r.Wait()
	}
	r.Meta.WRLock = true

	if r.Meta.Obsolete(m.TS) { // L33/L37
		r.Meta.WRLock = false
		r.Wake()
		r.Unlock()
		n.spawnObsolete(r, m)
		return false
	}

	r.Publish(m.Value, m.TS) // L34-35: update LLC (seqlocked)
	r.Meta.WRLock = false    // L36
	r.Wake()
	r.Unlock()
	return true
}

// spawnObsolete runs the obsolete-INV path on its own goroutine: its
// spins wait for the superseding write's VAL, which is a same-key
// message that would otherwise sit behind this handler on the same
// delivery goroutine. Obsolete INVs only occur under write contention,
// so the goroutine is the rare case, not the common one.
func (n *Node) spawnObsolete(r *kv.Record, m ddp.Message) {
	n.spawn(func() { n.followerObsolete(r, m) })
}

// followerObsolete handles an obsolete INV (Fig 2 L27-30): spin until
// the superseding write completes, then acknowledge as if done.
// Re-reading VolatileTS after taking the lock is safe: it can only
// have advanced past the superseder, and waiting on a yet-newer write
// still implies the original superseder completed.
func (n *Node) followerObsolete(r *kv.Record, m ddp.Message) {
	r.Lock()
	obs := r.Meta.VolatileTS
	for !r.Meta.ConsistencyDone(obs) {
		if n.closed.Load() {
			r.Unlock()
			return
		}
		r.Wait()
	}
	if r.ReleaseRDLockIfOwner(m.TS) {
		// Same liveness guard as the coordinator: an obsolete write that
		// won the lock after the superseder finished must free it.
		r.Wake()
	}
	if !n.policy.SeparateAcks {
		// Synch: both spins, then the combined ACK.
		for !r.Meta.PersistencyDone(obs) {
			if n.closed.Load() {
				r.Unlock()
				return
			}
			r.Wait()
		}
		r.Unlock()
		n.sendAck(m, ddp.KindAck)
		return
	}
	r.Unlock()
	n.sendAck(m, ddp.KindAckC)
	if n.policy.PersistencySpinOnObsolete && n.policy.TracksPersistency {
		r.Lock()
		for !r.Meta.PersistencyDone(obs) {
			if n.closed.Load() {
				r.Unlock()
				return
			}
			r.Wait()
		}
		r.Unlock()
		n.sendAck(m, ddp.KindAckP)
	}
}

func (n *Node) sendAck(m ddp.Message, kind ddp.MsgKind) {
	n.send(m.From, ddp.Message{
		Kind: kind, Key: m.Key, TS: m.TS, Scope: m.Scope,
		Size: ddp.ControlSize(),
	})
}

// handleVal applies a VAL/VAL_C/VAL_P at a follower (Fig 2 L41-44).
func (n *Node) handleVal(m ddp.Message) {
	r := n.store.GetOrCreate(m.Key)
	r.Lock()
	defer r.Unlock()
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
	r.Wake()
}
