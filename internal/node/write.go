package node

import (
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/kv"
	"github.com/minos-ddp/minos/internal/obs"
	"github.com/minos-ddp/minos/internal/transport"
)

// client names who an operation answers: a remote client (a response
// frame to to, echoing id) or, as the zero value, an in-process caller.
type client struct {
	remote bool
	to     ddp.NodeID
	id     uint64
	op     transport.ClientOp
}

// reply is an operation's completion: its client and, for an in-process
// caller, the outcome and the condition it parks on.
type reply struct {
	client
	cond *sync.Cond
	done atomic.Bool
	err  error
}

// replyPool recycles the replies in-process readers park on; a write's
// reply lives in its pooled writeTxn.
var replyPool = sync.Pool{New: func() any {
	return &reply{cond: sync.NewCond(new(sync.Mutex))}
}}

// finish delivers an operation's outcome exactly once: a response frame
// for a remote client, a wake-up for an in-process one.
func (n *Node) finish(rep *reply, err error) {
	if rep.remote {
		n.fe.complete(rep.client, nil, err)
		return
	}
	rep.cond.L.Lock()
	rep.err = err
	rep.done.Store(true)
	rep.cond.Broadcast()
	rep.cond.L.Unlock()
}

// Inline-polling wait tuning: an in-process caller spins this many
// rounds, each draining inbound frames itself (PollInline) or yielding,
// before parking. Over the ring at zero persist delay a whole write
// completes within a few rounds.
const (
	ackSpinRounds = 256
	ackPollBudget = 32
)

// wait parks an in-process caller until its operation finishes. With
// poll set, over an inline-polling transport it first drives the receive
// path itself, so the acknowledgments that complete a write or a scope
// flush run on its goroutine. A read stalled on an RDLock does not poll:
// the release it waits for is another write's, and spinning only takes
// the CPU that write needs (on 2 vCPUs it tripled the write p90 of an
// in-process writer beside a stalled in-process reader).
//
//minos:hotpath
func (n *Node) wait(rep *reply, poll bool) error {
	if poll && n.poller != nil {
		for spin := 0; spin < ackSpinRounds && !rep.done.Load(); spin++ {
			// A spinning caller must not sit on staged VAL releases:
			// its peers' hot-key writes wait on them.
			n.flushVals()
			if n.poller.PollInline(ackPollBudget) == 0 {
				runtime.Gosched()
			}
		}
	}
	// Parked callers cannot piggyback flushes; drain the stage first so
	// peers are not left waiting on our releases.
	n.flushVals()
	rep.cond.L.Lock()
	for !rep.done.Load() {
		rep.cond.Wait()
	}
	rep.cond.L.Unlock()
	return rep.err
}

// Write performs a client-write: replicate value under key to every
// node per the configured DDP model (Fig 2 Coordinator). It returns once
// the model's visibility/durability conditions for a response hold.
func (n *Node) Write(key ddp.Key, value []byte) error {
	return n.writeScoped(key, value, 0)
}

// WriteScoped is Write tagging the update with scope sc (<Lin, Scope>).
func (n *Node) WriteScoped(key ddp.Key, value []byte, sc ddp.ScopeID) error {
	if !n.policy.Scoped {
		return n.Write(key, value)
	}
	return n.writeScoped(key, value, sc)
}

//minos:hotpath
func (n *Node) writeScoped(key ddp.Key, value []byte, sc ddp.ScopeID) error {
	wt, err := n.write(key, value, sc, client{})
	if wt == nil {
		return err
	}
	err = n.wait(&wt.reply, true)
	n.release(wt)
	return err
}

// write issues a client-write (Fig 2 L4-L18) on the caller's goroutine
// and hands the transaction to advance; the outcome goes to c. An
// in-process caller gets the txn to wait on, or nil and the outcome
// when the write ended before it had one. A remote write never blocks.
//
//minos:hotpath
func (n *Node) write(key ddp.Key, value []byte, sc ddp.ScopeID, c client) (*writeTxn, error) {
	if n.closed.Load() {
		return nil, ErrClosed
	}
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

	followers := n.liveFollowers()
	wt := n.getWriteTxn(r, key, ts, sc, followers, c, tc)
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
	// committing goroutine delivers to the transaction (sendDurableAck);
	// a remote write's waits for the delivery goroutine's Flush.
	switch {
	case n.policy.CoordPersist == ddp.CoordPersistOnScopeFlush:
		n.bufferScope(sc, key, ts, value)
	case c.remote && n.commitInline:
		n.pipe.DeferAck(key, ts, value, sc, n.id, n.durableAck, 0)
	case n.policy.TracksPersistency:
		n.pipe.EnqueueAck(key, ts, value, sc, n.id, n.durableAck, 0)
	default:
		n.pipe.Enqueue(key, ts, value, sc)
	}
	tc.mark(obs.PhasePersistEnqueue)

	n.advance(wt)
	if c.remote {
		return nil, nil
	}
	return wt, nil
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
			n.finish(&wt.reply, ErrClosed)
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
			n.finish(&wt.reply, nil)
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
		n.finish(&wt.reply, nil)
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

// Read performs a client-read (§III-D): always local, stalled only
// while the record's RDLock is held by an in-flight write. It returns a
// copy of the value (nil if the key has never been written).
func (n *Node) Read(key ddp.Key) ([]byte, error) {
	return n.ReadInto(key, nil)
}

// ReadInto is Read with a caller-supplied buffer: the value is copied
// into buf (reusing its capacity, growing it only when too small) and
// the filled slice returned, so a client that recycles its buffer reads
// without allocating. The steady-state path is the record's seqlock —
// no mutex, one wait-free store lookup; a read that finds the record's
// RDLock held by an in-flight write (the §III-D read stall), or keeps
// losing the copy to publications, falls back to readParked.
//
//minos:hotpath
func (n *Node) ReadInto(key ddp.Key, buf []byte) ([]byte, error) {
	r, v, err := n.readFast(key, buf)
	if r != nil {
		return n.readParked(r, buf)
	}
	return v, err
}

// readFast is the read's lock-free half. It returns the record only
// when the read must fall back to the record lock.
//
//minos:hotpath
func (n *Node) readFast(key ddp.Key, buf []byte) (*kv.Record, []byte, error) {
	if n.closed.Load() {
		return nil, nil, ErrClosed
	}
	n.Stats.Reads.Add(1)
	r := n.store.Get(key)
	if r == nil {
		// Never written or preloaded anywhere: nothing to stall on.
		return nil, nil, nil
	}
	if v, ok := r.ReadInto(buf); ok {
		return nil, v, nil
	}
	return r, nil, nil
}

// readOrPark copies r's value into buf under the record lock or, while
// a write holds the RDLock, parks w for the release to fire and reports
// parked. A closing node parks nothing and returns ErrClosed.
func (n *Node) readOrPark(r *kv.Record, w kv.Waiter, buf []byte) (v []byte, parked bool, err error) {
	r.Lock()
	defer r.Unlock()
	if r.Meta.RDLocked() {
		if !n.park(r, w) {
			return nil, false, ErrClosed
		}
		return nil, true, nil
	}
	if r.Value == nil {
		return nil, false, nil
	}
	return append(buf[:0], r.Value...), false, nil
}

// readParked is the in-process read fallback: it parks the caller on
// the record until the RDLock's release fires it, then reads again — a
// newer write may have taken the lock in between.
func (n *Node) readParked(r *kv.Record, buf []byte) ([]byte, error) {
	rep := replyPool.Get().(*reply)
	defer replyPool.Put(rep)
	for {
		rep.done.Store(false)
		v, parked, err := n.readOrPark(r, kv.Waiter{Until: kv.UntilUnlocked, Reply: rep}, buf)
		if !parked {
			return v, err
		}
		if err := n.wait(rep, false); err != nil {
			return nil, err
		}
	}
}
