package node

import (
	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/obs"
)

// write issues a client-write (Fig 2 L4-L18) on the caller's goroutine
// and hands the transaction to advance, which answers c. It never
// blocks.
//
//minos:hotpath
func (n *Node) write(key ddp.Key, value []byte, sc ddp.ScopeID, c client) {
	n.Stats.Writes.Add(1)
	tc := n.startTrace(key)
	r := n.store.GetOrCreate(key)

	// The transaction-stripe mutex nests inside the record lock
	// (addPending below runs with the record held).
	//minos:lockorder kv.Record < node.txnStripe.mu
	r.Lock()
	// L4; never obsolete (L5, L10): see generateTS. The record mutex is
	// the WRLock (L9, L13).
	ts := n.generateTS(r)
	tc.setVer(ts.Version)
	r.SnatchRDLock(ts) // L8

	// followers comes from an immutable liveness snapshot; aliasing it
	// is safe and keeps the write fast path allocation-free.
	followers := n.liveFollowers()
	wt := wtPool.Get().(*writeTxn)
	wt.txn.Reset(n.policy, n.id, key, ts, len(followers))
	wt.txn.Scope = sc
	wt.followers, wt.r, wt.tc, wt.client = followers, r, tc, c
	wt.busy, wt.persisted, wt.stage = true, false, awaitConsistent // issue holds the busy role
	n.addPending(key, ts, wt)
	tc.mark(obs.PhaseIssue) // timestamp issued, locks held, txn pending

	inv := ddp.Message{
		Kind: ddp.KindInv, Key: key, TS: ts, Scope: sc,
		Value: value,
		Size:  ddp.DataSize(len(value)),
	}
	// The INV fan-out runs with the record held, and every send first
	// flushes the staged VAL broadcasts; the stage mutex is a leaf (its
	// holder only encodes and broadcasts, never touching records).
	//minos:lockorder kv.Record < node.valStage.mu
	n.sendAll(followers, inv) // L11: send INVs (broadcast when all alive)
	tc.mark(obs.PhaseInvFanout)

	r.Publish(value, ts) // L12: update local volatile state (seqlocked)
	r.Unlock()

	// Step d (L18 / Fig 3): persist the local update. The pipeline copies
	// the value; a model that tracks persistency learns of the group
	// commit through an acknowledgment addressed to this node, which the
	// committing goroutine delivers to the transaction (sendDurableAck).
	// Under commitInline it waits for the issuing goroutine's Flush: the
	// delivery goroutine's at the end of its burst, a session caller's at
	// the start of its wait.
	switch {
	case n.policy.CoordPersist == ddp.CoordPersistOnScopeFlush:
		n.bufferScope(sc, key, ts, value)
	case n.commitInline:
		n.pipe.DeferAck(key, ts, value, sc, n.id, n.durableAck, 0)
	case n.policy.TracksPersistency:
		n.pipe.EnqueueAck(key, ts, value, sc, n.id, n.durableAck, 0)
	default:
		n.pipe.Enqueue(key, ts, value, sc)
	}
	tc.mark(obs.PhasePersistEnqueue)

	n.advance(wt)
}

// Write-transaction stages: every txn waits for its consistency point;
// the models that track persistency then wait for its durability point.
const (
	awaitConsistent uint8 = iota
	awaitDurable
)

// advance is the write transaction's continuation. The caller holds the
// txn's busy role (claimed under wt.mu, or held since issue): it runs
// every step the txn is ready for, in order, then drops the role unless
// a step retired the txn. An event that finds the role taken only
// records itself; the holder re-checks under wt.mu before letting go,
// so no event is lost and no step runs twice or concurrently.
//
//minos:hotpath
func (n *Node) advance(wt *writeTxn) {
	wt.mu.Lock()
	for n.ready(wt) {
		wt.mu.Unlock()
		if n.step(wt) {
			return
		}
		wt.mu.Lock()
	}
	wt.busy = false
	wt.mu.Unlock()
}

// ready reports whether the txn's next step can run: consistency once
// every live follower's consistency ack is in (plus the local persist
// where it is in the critical path: Fig 2 L18 precedes the L19 spin),
// durability once every persistency ack and the local persist are, and
// anything on a closed node, which unwinds. Caller holds wt.mu.
//
//minos:hotpath
func (n *Node) ready(wt *writeTxn) bool {
	if n.closed.Load() {
		return true
	}
	doneC, doneP := n.acked(wt)
	if wt.stage == awaitConsistent {
		return doneC && (wt.persisted || n.policy.CoordPersist != ddp.CoordPersistInline)
	}
	return doneP && wt.persisted
}

// step runs the txn's next step and reports whether it retired the txn.
// The consistency point publishes glb_volatileTS, releases the RDLock
// and sends VAL_C where the model says; the durability point publishes
// glb_durableTS, releases, and sends the durable VAL / VAL_P. The
// client is answered at the model's Return point.
//
//minos:hotpath
func (n *Node) step(wt *writeTxn) bool {
	key, ts, r, tc := wt.txn.Key, wt.txn.TS, wt.r, wt.tc
	if n.closed.Load() {
		if wt.stage == awaitConsistent || n.policy.Return == ddp.ReturnWhenDurable {
			n.fe.complete(wt.client, nil, ErrClosed)
		}
		n.retire(wt)
		return true
	}
	if wt.stage == awaitConsistent {
		tc.mark(obs.PhaseAckWait)
		r.Lock()
		r.Meta.AdvanceGlbVolatile(ts)
		if n.policy.SendsValAtConsistency() && n.policy.Release == ddp.ReleaseWhenConsistent {
			r.ReleaseRDLockIfOwner(ts)
		}
		r.Unlock()
		n.fire(r, false)
		if n.policy.SendsValAtConsistency() {
			n.sendVal(ddp.KindValC, key, ts, wt.txn.Scope, wt.followers)
			tc.mark(obs.PhaseVal)
		}
		wt.stage = awaitDurable
		if n.policy.Return == ddp.ReturnWhenConsistent {
			// The durability half (REnf) runs untraced: its spans would
			// overlap the client's next write, breaking the trace
			// format's non-interleaving invariant.
			tc.mark(obs.PhaseCompletion)
			wt.tc = nil
			n.fe.complete(wt.client, nil, nil)
		}
		if !n.policy.TracksPersistency {
			n.retire(wt)
			return true
		}
		return false
	}
	tc.mark(obs.PhaseGroupCommit) // the durability point
	r.Lock()
	r.Meta.AdvanceGlbDurable(ts)
	if n.policy.Release == ddp.ReleaseWhenDurable || !n.policy.SendsValAtConsistency() {
		r.ReleaseRDLockIfOwner(ts)
	}
	r.Unlock()
	n.fire(r, false)
	if kind, ok := n.policy.DurableValKind(); ok {
		n.sendVal(kind, key, ts, wt.txn.Scope, wt.followers)
		tc.mark(obs.PhaseVal)
	}
	if n.policy.Return == ddp.ReturnWhenDurable {
		tc.mark(obs.PhaseCompletion)
		n.fe.complete(wt.client, nil, nil)
	}
	n.retire(wt)
	return true
}

// handleAck records an acknowledgment of a pending write — a
// follower's, or (from == this node) the local persist's — and advances
// the write unless another goroutine holds it. Recording and claiming
// happen under the stripe lock and only the claim holder retires a
// txn, so the claimed txn outlives the locks. Acks for a retired txn
// (from a peer declared failed, or after Close) are discarded.
//
//minos:lockorder node.txnStripe.mu < node.writeTxn.mu
//minos:hotpath
func (n *Node) handleAck(key ddp.Key, ts ddp.Timestamp, kind ddp.MsgKind, from ddp.NodeID) {
	s := n.stripeFor(key)
	s.mu.Lock()
	wt := s.pending[txnKey{key, ts}]
	if wt == nil {
		s.mu.Unlock()
		return
	}
	wt.mu.Lock()
	if from == n.id {
		wt.persisted = true
	} else {
		// Duplicate acks can occur after failure/recovery races;
		// errors from re-recording are benign here.
		_ = wt.txn.RecordAck(kind, from)
	}
	claimed := !wt.busy
	wt.busy = true
	wt.mu.Unlock()
	s.mu.Unlock()
	if claimed {
		n.advance(wt)
	}
}

func (n *Node) sendVal(kind ddp.MsgKind, key ddp.Key, ts ddp.Timestamp, sc ddp.ScopeID, followers []ddp.NodeID) {
	if n.vals != nil && len(followers) == len(n.peers) {
		// Stage the validation; the next
		// outbound message (or the flush ticker) broadcasts it, letting
		// back-to-back commits share one encode+fan-out (valbatch.go).
		n.stageVal(kind, key, ts, sc)
		return
	}
	val := ddp.Message{Kind: kind, Key: key, TS: ts, Scope: sc, Size: ddp.ControlSize()}
	n.sendAll(followers, val)
}

// acked reports whether every live follower's consistency (doneC) and
// persistency (doneP) acknowledgment is recorded. Caller holds wt.mu.
//
//minos:hotpath
func (n *Node) acked(wt *writeTxn) (doneC, doneP bool) {
	doneC, doneP = true, true
	for _, f := range wt.followers {
		if n.isAlive(f) {
			doneC = doneC && wt.txn.AckedC(f)
			doneP = doneP && wt.txn.AckedP(f)
		}
	}
	return doneC, doneP
}
