// Package node implements a live MINOS-B node: the leaderless DDP
// coordinator and follower algorithms of Fig 2 (with the Fig 3 per-model
// deltas) running on real goroutines over a Transport, with the failure
// detection and log-shipping recovery extensions of §III-E.
//
// This is the executable counterpart of the simulated cluster: both
// consume the protocol semantics in internal/ddp, so the model checker's
// and simulator's correctness arguments carry over.
package node

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/kv"
	"github.com/minos-ddp/minos/internal/nvm"
	"github.com/minos-ddp/minos/internal/obs"
	"github.com/minos-ddp/minos/internal/offload"
	"github.com/minos-ddp/minos/internal/transport"
)

// ErrClosed is returned by operations on a closed node.
var ErrClosed = errors.New("node: closed")

// Config tunes a live node.
type Config struct {
	// Model is the <consistency, persistency> model to run.
	Model ddp.Model
	// PersistDelay emulates the NVM write latency charged before a
	// persist is considered durable (the paper emulates 1295ns/KB).
	// The delay is charged once per group commit of the node's one
	// dFIFO, not once per entry — the batching of §V-B.4. Zero charges
	// nothing; persists still drain in group commits.
	PersistDelay time.Duration
	// HeartbeatEvery and FailAfter drive the failure detector: a peer
	// silent for FailAfter is declared failed and writes stop waiting
	// for it. Zero values disable detection (the pure protocol).
	HeartbeatEvery time.Duration
	FailAfter      time.Duration
	// Tracer, when non-nil, records per-transaction phase spans on the
	// write path (obs.Phase taxonomy). Nil disables tracing; the hot
	// path then pays a single predictable branch per phase boundary.
	Tracer *obs.Tracer
	// ClientWindow bounds the client frontend: at most this many client
	// operations, remote or from in-process sessions, are in flight at
	// once; one beyond that is shed (StatusShed, ErrShed). Zero selects
	// the default window of 1024.
	ClientWindow int
	// Offload, when non-nil, enables the soft-NIC offload engine
	// (MINOS-O): protocol messages for keys the adaptive policy deems
	// hot are handled on the engine's core pool instead of the delivery
	// goroutine. The config's callback fields (Handler, Now) are owned
	// by the node and overwritten; set only the tuning knobs.
	// &offload.Config{} selects all defaults.
	Offload *offload.Config
}

// defaultClientWindow is the client frontend's in-flight bound when
// Config.ClientWindow is zero.
const defaultClientWindow = 1024

// storeShards sizes the KV store's lock striping.
const storeShards = 64

// txnKey identifies a write transaction; TS_WR is unique per record only.
type txnKey struct {
	key ddp.Key
	ts  ddp.Timestamp
}

// writeTxn is one in-flight client-write at its coordinator and its
// own continuation: acks, the local persist, a peer failure or Close
// advance it from whichever goroutine delivers them, and it answers its
// client at the model's Return point. mu guards the acks, persisted and
// busy; stage and tc belong to the busy role.
type writeTxn struct {
	mu        sync.Mutex
	client    client
	txn       *ddp.WriteTxn // key, ts, scope and the follower acks
	followers []ddp.NodeID
	r         *kv.Record
	tc        *traceCtx
	busy      bool // a goroutine is running the txn's steps
	persisted bool // the local persist is durable
	stage     uint8
}

// wtPool recycles writeTxn state (including the WriteTxn ack maps, via
// Reset) across writes.
var wtPool = sync.Pool{New: func() any {
	return &writeTxn{txn: &ddp.WriteTxn{}}
}}

// scopePersist is one [PERSIST]sc at its coordinator, guarded by
// scopeMu.
type scopePersist struct {
	client    client
	followers []ddp.NodeID
	got       map[ddp.NodeID]bool // acked, the coordinator's own flush included
}

// txnStripeCount stripes the coordinator's transaction table; power of
// two for mask indexing.
const txnStripeCount = 64

// txnStripe is one stripe of the coordinator's transaction table.
type txnStripe struct {
	mu      sync.Mutex
	pending map[txnKey]*writeTxn
}

// liveView is an immutable snapshot of the failure detector's world.
// It is published atomically so the protocol hot paths — the isAlive
// checks inside the acknowledgment spins and the follower snapshot at
// write start — read liveness without taking any lock.
type liveView struct {
	epoch uint64
	alive map[ddp.NodeID]bool // immutable after publish
	live  []ddp.NodeID        // alive peers, ascending; immutable
}

// Node is one live MINOS-B replica.
type Node struct {
	cfg    Config
	policy ddp.Policy
	id     ddp.NodeID
	tr     transport.Transport

	// durableAck is the kind a follower acknowledges a persisted INV
	// with (Fig 2 L40): the combined ACK under Synch, ACK_P under the
	// split-ack models.
	durableAck ddp.MsgKind

	// peers is the transport's sorted peer list, snapshotted once at
	// construction so the hot paths never re-derive it.
	peers   []ddp.NodeID
	peerIdx map[ddp.NodeID]int

	store *kv.Store
	log   *nvm.Log
	pipe  *nvm.Pipeline
	// commitInline: a client waits on the durable acks (Synch, Strict),
	// so the goroutine that defers a persist commits it itself (Flush):
	// the delivery goroutine at the end of each receive burst, a session
	// caller as its wait starts.
	commitInline bool
	// off is the soft-NIC offload engine (MINOS-O); nil runs pure
	// MINOS-B, every message on the delivery goroutine.
	off *offload.Engine
	// fe is the client frontend: bounded admission of every client
	// operation, remote or in-process; sess is the default session
	// behind Node.Write, Read, ReadInto and Persist.
	fe   *frontend
	sess *Session

	// poller is non-nil when the transport polls inline: frames then
	// arrive on whichever goroutine holds its poll token (borrowing
	// transport storage) instead of on recvLoop, and a session caller
	// waiting on its operation drives the poll itself.
	poller transport.InlinePoller

	// vals coalesces release-side VAL broadcasts from back-to-back
	// commits (valbatch.go); non-nil only over an inline-polling
	// transport.
	vals *valStage

	// detecting is true when the failure detector is configured; with it
	// off, noteAlive (a clock read per inbound frame) short-circuits.
	detecting bool

	txns [txnStripeCount]*txnStripe

	scopeMu   sync.Mutex // guards scopeBuf, scopeWait and their flushes
	scopeBuf  map[ddp.ScopeID][]nvm.Update
	scopeWait map[ddp.ScopeID]*scopePersist

	live     atomic.Pointer[liveView]
	liveMu   sync.Mutex // serializes liveView publication only
	lastSeen []atomic.Int64

	scopeSeq atomic.Uint64
	txnSeq   atomic.Uint64
	closed   atomic.Bool
	stop     chan struct{}
	wg       sync.WaitGroup

	// obs is the node's metrics registry ("node." prefix); the NVM
	// pipeline and the tracer register into it, so one Collect walks
	// the whole node.
	obs        *obs.Registry
	tracer     *obs.Tracer
	heartbeats *obs.Counter
	valBatches *obs.Counter
	valsStaged *obs.Counter

	// parked counts the waiters parked on records now, waiterPeak
	// ("record_waiters") its high-water mark; waitersFired counts
	// those taken off again (by a release, or by Close).
	parked       atomic.Int64
	waiterPeak   *obs.Gauge
	waitersFired *obs.Counter

	// Stats counts protocol events for observability and tests.
	Stats Stats
}

// Stats exposes the node's protocol counters. The fields are
// registry-backed instruments (they appear in snapshots under the
// "node." prefix); Add/Load keep the historical atomic surface.
// ObsoleteWrites stays zero: a coordinator's own write is never
// obsolete (generateTS).
type Stats struct {
	Writes         *obs.Counter
	Reads          *obs.Counter
	ObsoleteWrites *obs.Counter
	Persists       *obs.Counter
	InvsHandled    *obs.Counter
	PeersFailed    *obs.Counter
	Recoveries     *obs.Counter
}

// New creates a node over tr. Call Start to begin serving.
func New(cfg Config, tr transport.Transport) *Node {
	if cfg.ClientWindow <= 0 {
		cfg.ClientWindow = defaultClientWindow
	}
	n := &Node{
		cfg:       cfg,
		policy:    ddp.PolicyFor(cfg.Model),
		id:        tr.Self(),
		tr:        tr,
		peers:     tr.Peers(),
		store:     kv.NewStore(storeShards),
		log:       nvm.NewLog(),
		scopeBuf:  make(map[ddp.ScopeID][]nvm.Update),
		scopeWait: make(map[ddp.ScopeID]*scopePersist),
		stop:      make(chan struct{}),
	}
	for i := range n.txns {
		n.txns[i] = &txnStripe{pending: make(map[txnKey]*writeTxn)}
	}
	n.commitInline = n.policy.Return == ddp.ReturnWhenDurable
	n.durableAck = ddp.KindAck
	if n.policy.SeparateAcks {
		n.durableAck = ddp.KindAckP
	}
	n.poller, _ = tr.(transport.InlinePoller)
	if n.poller != nil {
		n.vals = &valStage{}
	}
	n.detecting = cfg.HeartbeatEvery > 0 && cfg.FailAfter > 0
	n.peerIdx = make(map[ddp.NodeID]int, len(n.peers))
	n.lastSeen = make([]atomic.Int64, len(n.peers))
	now := time.Now().UnixNano()
	alive := make(map[ddp.NodeID]bool, len(n.peers))
	for i, p := range n.peers {
		n.peerIdx[p] = i
		n.lastSeen[i].Store(now)
		alive[p] = true
	}
	n.live.Store(&liveView{alive: alive, live: n.peers})
	n.obs = obs.NewRegistry("node")
	n.Stats = Stats{
		Writes:         n.obs.Counter("writes"),
		Reads:          n.obs.Counter("reads"),
		ObsoleteWrites: n.obs.Counter("obsolete_writes"),
		Persists:       n.obs.Counter("persists"),
		InvsHandled:    n.obs.Counter("invs_handled"),
		PeersFailed:    n.obs.Counter("peers_failed"),
		Recoveries:     n.obs.Counter("recoveries"),
	}
	n.heartbeats = n.obs.Counter("heartbeats_sent")
	n.valBatches = n.obs.Counter("val_batches")
	n.valsStaged = n.obs.Counter("vals_staged")
	n.waiterPeak = n.obs.Gauge("record_waiters")
	n.waitersFired = n.obs.Counter("waiters_fired")
	n.tracer = cfg.Tracer
	n.pipe = nvm.NewPipeline(n.log, nvm.PipelineConfig{
		// PersistDelay is a flat per-device-write cost, matching the
		// pre-pipeline semantics where every persist charged the full
		// delay; group commit amortizes it across a drained batch.
		Lat:     nvm.LatencyModel{FixedNs: cfg.PersistDelay.Nanoseconds()},
		OnBatch: n.onPersistBatch,
		OnAck:   n.sendDurableAck,
	})
	n.fe = newFrontend(n, cfg.ClientWindow)
	n.sess = n.Session()
	if cfg.Offload != nil {
		oc := *cfg.Offload
		oc.Handler = n.handleOffloaded
		oc.Now = nil
		if n.tracer.Enabled() {
			oc.Now = n.tracer.Now
		}
		n.off = offload.New(oc)
		n.obs.Register(n.off)
	}
	n.obs.Register(n.pipe)
	if n.tracer != nil {
		n.obs.Register(n.tracer)
	}
	return n
}

// ID returns this node's identity.
func (n *Node) ID() ddp.NodeID { return n.id }

// Model returns the DDP model this node runs.
func (n *Node) Model() ddp.Model { return n.cfg.Model }

// Store exposes the replica (read-only use by tests and tools).
func (n *Node) Store() *kv.Store { return n.store }

// Log exposes the persistent log.
func (n *Node) Log() *nvm.Log { return n.log }

// Pipeline exposes the durability pipeline (tests and tools).
func (n *Node) Pipeline() *nvm.Pipeline { return n.pipe }

// Describe implements obs.Source.
func (n *Node) Describe() string { return "node" }

// Collect implements obs.Source: one call walks the node's protocol
// counters, its NVM pipeline, and (when tracing) the tracer's
// accounting.
func (n *Node) Collect(s *obs.Snapshot) { n.obs.Collect(s) }

// Start begins serving protocol messages and, if configured, the
// failure detector. Either way every frame runs through handleFrame on
// one delivery goroutine at a time: the transport's poll-token holder
// when it polls inline, recvLoop otherwise.
func (n *Node) Start() {
	if n.poller != nil {
		n.poller.SetHandler(n.handleFrame)
		if n.commitInline {
			n.poller.SetBurstEnd(n.pipe.Flush)
		}
	} else {
		n.wg.Add(1)
		go n.recvLoop()
	}
	if n.cfg.HeartbeatEvery > 0 && n.cfg.FailAfter > 0 {
		n.wg.Add(1)
		go n.heartbeatLoop()
	}
	if n.vals != nil {
		n.wg.Add(1)
		go n.valFlushLoop()
	}
	if n.off != nil {
		n.off.Start()
	}
}

// Close shuts the node down, failing every operation still waiting.
func (n *Node) Close() error {
	if !n.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(n.stop)
	n.tr.Close()

	// Stop the durability pipeline first: it drops the persists still
	// queued, so their acks never fire, and no local persist completes a
	// write after. sweep below ends the writes and scope flushes waiting
	// on them with ErrClosed.
	n.pipe.Close()

	// Finish every in-flight write and scope flush with ErrClosed, then
	// fail every waiter parked on a record; park refuses new ones from
	// here on. No handler waits on a record, so the offload engine's
	// cores need none of this to drain and exit.
	n.sweep()
	n.store.Range(func(r *kv.Record) bool {
		n.fire(r, true)
		return true
	})
	if n.off != nil {
		n.off.Close()
	}
	n.wg.Wait()
	return nil
}

// sweep re-evaluates every in-flight write and scope flush: after a
// peer failure the acks it owes stop counting, and after Close each
// finishes with ErrClosed. A write whose busy role is taken is left to
// its holder, which re-evaluates before letting go.
//
//minos:lockorder node.txnStripe.mu < node.writeTxn.mu
func (n *Node) sweep() {
	var claimed []*writeTxn
	for _, s := range n.txns {
		s.mu.Lock()
		for _, wt := range s.pending {
			wt.mu.Lock()
			if !wt.busy {
				wt.busy = true
				claimed = append(claimed, wt)
			}
			wt.mu.Unlock()
		}
		s.mu.Unlock()
	}
	for _, wt := range claimed {
		n.advance(wt)
	}
	n.scopeMu.Lock()
	scopes := make([]ddp.ScopeID, 0, len(n.scopeWait))
	for sc := range n.scopeWait {
		scopes = append(scopes, sc)
	}
	n.scopeMu.Unlock()
	for _, sc := range scopes {
		n.checkScope(sc)
	}
}

// recvLoop is the delivery goroutine for transports that do not poll
// inline (mem, TCP): it drains the receive channel through handleFrame,
// flushing the burst's deferred persists whenever the channel is empty.
func (n *Node) recvLoop() {
	defer n.wg.Done()
	rx := n.tr.Recv()
	for {
		if n.commitInline && len(rx) == 0 {
			n.pipe.Flush()
		}
		f, ok := <-rx
		if !ok {
			return
		}
		n.handleFrame(f)
	}
}

// handleFrame is the node's only frame sink. It runs on one delivery
// goroutine at a time — recvLoop, or whichever goroutine holds an
// inline-polling transport's poll token (the endpoint's poller or a
// coordinator polling during its ack wait) — and drives each protocol
// message through its handler to completion before the next frame is
// looked at. That is what keeps one record's messages in transport
// order (the ordering Fig 2's metadata checks rely on) and what makes
// the offload engine's ownership transfers raceless. Handlers therefore
// never block: a client operation runs here up to the point where it
// waits, and completes later on the acknowledgment that finishes it; an
// obsolete INV's spins and a read stalled on an RDLock park a waiter on
// the record instead, and the release that ends the wait resumes it; a
// persist, a scope flush's included, acknowledges from the pipeline's
// ack hook after its group commit. Frame values may borrow transport
// storage; every retaining path (record apply, scope buffer, log
// append, vFIFO admission) copies before parking or returning, so
// nothing outlives the callback.
//
//minos:hotpath
func (n *Node) handleFrame(f transport.Frame) {
	n.noteAlive(f.From)
	switch f.Kind {
	case transport.FrameMessage:
		// Offload gate: hot keys route to the soft-NIC pool.
		if n.off != nil && offloadable(f.Msg) && n.off.Route(f.Msg) {
			return
		}
		n.handleMessage(f.Msg)
	case transport.FrameHeartbeat:
		// noteAlive above is the whole job.
	case transport.FrameClientRequest:
		n.fe.exec(client{to: f.From, id: f.Client, op: f.Req.Op}, f.Req.Key, f.Req.Value)
	case transport.FrameRecoveryRequest:
		n.spawnRecovery(f.From, f.Since)
	case transport.FrameRecoveryEntries:
		n.applyRecovery(f.Entries)
	}
}

// spawnRecovery serves a log-shipping request off the delivery path,
// on a goroutine Close waits for; recovery is rare and EntriesSince is
// O(log tail).
func (n *Node) spawnRecovery(from ddp.NodeID, since uint64) {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.serveRecovery(from, since)
	}()
}

// park parks w on r, whose lock the caller holds, and reports whether
// it did: not on a closing node, where no Close would ever fail w.
func (n *Node) park(r *kv.Record, w kv.Waiter) bool {
	if n.closed.Load() {
		return false
	}
	r.Park(w)
	n.waiterPeak.Max(n.parked.Add(1))
	return true
}

// fire resumes the waiters on r that a change to its metadata
// satisfied; the caller made the change under r's lock and has just
// released it, so a record with no waiters costs one atomic load. A
// closing node resumes every waiter, under the lock that orders it
// against park's closed check: each re-runs its step, park refuses it,
// and it ends with ErrClosed (a read) or no acknowledgment (an INV).
func (n *Node) fire(r *kv.Record, closing bool) {
	if !closing && r.Parked() == 0 {
		return
	}
	var buf [4]kv.Waiter
	r.Lock()
	ready := r.Fire(buf[:0], closing)
	r.Unlock()
	n.parked.Add(-int64(len(ready)))
	n.waitersFired.Add(int64(len(ready)))
	for _, w := range ready {
		n.resume(r, w)
	}
}

// resume runs a fired waiter's next step.
func (n *Node) resume(r *kv.Record, w kv.Waiter) {
	if w.Until == kv.UntilUnlocked { // a stalled client read
		sl, _ := w.Reply.(*slot)
		n.fe.readStalled(r, client{to: w.To, id: w.Client, op: transport.OpClientRead, sl: sl})
		return
	}
	r.Lock() // an obsolete INV
	n.obsoleteAck(r, w)
}

// send transmits a protocol message; transport failures are left to the
// failure detector.
func (n *Node) send(to ddp.NodeID, m ddp.Message) {
	n.flushVals() // staged VALs precede later traffic (FIFO)
	m.From = n.id
	if err := n.tr.Send(to, transport.Frame{Kind: transport.FrameMessage, Msg: m}); err != nil {
		// The peer is unreachable; the detector (or reconnection) will
		// resolve it. Protocol correctness never depends on a
		// best-effort send succeeding.
		return
	}
}

// sendAll transmits m to every follower. When the follower set is the
// whole cluster (the common case: nothing has failed), it uses the
// transport's broadcast so the frame is encoded once and fanned out as
// shared bytes — the paper's message-broadcast optimization (§VI).
// With a reduced follower set it falls back to per-peer sends, since
// broadcasting would also wake peers the detector has declared dead.
func (n *Node) sendAll(followers []ddp.NodeID, m ddp.Message) {
	n.flushVals() // staged VALs precede later traffic (FIFO)
	if len(followers) == len(n.peers) {
		m.From = n.id
		// Best effort, like send: unreachable peers are the failure
		// detector's problem.
		_ = n.tr.Broadcast(transport.Frame{Kind: transport.FrameMessage, Msg: m})
		return
	}
	for _, f := range followers {
		n.send(f, m)
	}
}

// stripeFor returns the transaction-table stripe for key.
func (n *Node) stripeFor(key ddp.Key) *txnStripe {
	return n.txns[key.Hash()>>32&(txnStripeCount-1)]
}

// generateTS issues a unique timestamp for a write to r (Fig 2 L4): one
// version above volatileTS. The caller holds the record lock and
// publishes the write before releasing it, so volatileTS is the
// high-water mark of every version issued here, and the write is never
// obsolete (L5, L10).
//
//minos:hotpath
func (n *Node) generateTS(r *kv.Record) ddp.Timestamp {
	return ddp.Timestamp{Node: n.id, Version: r.Meta.VolatileTS.Version + 1}
}

// liveFollowers returns the followers currently considered alive. The
// slice is an immutable snapshot shared with the liveness view; callers
// must not mutate it.
func (n *Node) liveFollowers() []ddp.NodeID {
	return n.live.Load().live
}

// isAlive is a lock-free read of the published liveness snapshot; it
// sits inside the ack-wait predicates.
func (n *Node) isAlive(id ddp.NodeID) bool {
	return n.live.Load().alive[id]
}

func (n *Node) addPending(key ddp.Key, ts ddp.Timestamp, wt *writeTxn) {
	s := n.stripeFor(key)
	s.mu.Lock()
	s.pending[txnKey{key, ts}] = wt
	s.mu.Unlock()
}

// retire ends a write transaction. Taking the stripe lock is the
// quiescence point: events only reach a txn under it (handleAck, sweep),
// so once the delete commits none can touch what the pool recycles.
//
//minos:hotpath
func (n *Node) retire(wt *writeTxn) {
	s := n.stripeFor(wt.txn.Key)
	s.mu.Lock()
	delete(s.pending, txnKey{wt.txn.Key, wt.txn.TS})
	s.mu.Unlock()
	wtPool.Put(wt)
}

// persistThenAck makes the INV's update durable and then sends the
// node's durable acknowledgment to its coordinator — the follower's
// persist-before-ack step (Fig 2 L39-40) — without parking the caller
// for the NVM latency. It runs the same on the delivery goroutine and
// on a soft-NIC core: both enqueue into the one pipeline, whose single
// FIFO keeps the node's persists (and so its acks) in enqueue order.
// The pipeline's ack fields carry the acknowledgment (sendDurableAck
// runs strictly after the group commit), allocating nothing; a sampled
// transaction also carries its trace start stamp there. Under
// commitInline the entry waits for the burst-end Flush (on a NIC core,
// handleOffloaded's Wake).
//
//minos:hotpath
func (n *Node) persistThenAck(m ddp.Message) {
	// Followers have no coordinator transaction sequence; the sampling
	// decision hashes the issued version instead, so a sampled run pays
	// the follower-side clock reads at the same 1-in-N rate.
	var stamp int64
	if n.tracer.Enabled() && n.tracer.SampleTxn(uint64(m.TS.Version)) {
		stamp = n.tracer.Now()
	}
	if n.commitInline {
		n.pipe.DeferAck(m.Key, m.TS, m.Value, m.Scope, m.From, n.durableAck, stamp)
		return
	}
	n.pipe.EnqueueAck(m.Key, m.TS, m.Value, m.Scope, m.From, n.durableAck, stamp)
}

// sendDurableAck ships a durable acknowledgment. It is the pipeline's
// OnAck hook: it runs on the committing goroutine strictly after the
// entry's group commit (worker or Flush), so the persist-before-ack
// order holds with no per-entry closure; an empty scope flush's runs at
// once, on its caller. An acknowledgment addressed to this node is a
// coordinator's own persist — a write's, or a scope flush's [ACK_P]sc
// with zero key and timestamp: it is handled as if it had arrived
// instead of leaving the node. A non-zero stamp is the trace start
// taken at enqueue; the follower's durability wait and the ack that
// follows it are then recorded as two chained spans — the persist
// (group_commit) span closes before the ack (val) span opens, which the
// trace ordering tests pin as the persist-before-ack invariant.
// Followers have no transaction id; spans correlate by (Key, Ver).
//
//minos:hotpath
func (n *Node) sendDurableAck(to ddp.NodeID, kind ddp.MsgKind, key ddp.Key, ts ddp.Timestamp, sc ddp.ScopeID, stamp int64) {
	ack := ddp.Message{Kind: kind, Key: key, TS: ts, Scope: sc, Size: ddp.ControlSize()}
	if to == n.id {
		ack.From = to
		n.handleMessage(ack)
		return
	}
	if stamp == 0 {
		n.send(to, ack)
		return
	}
	ackStart := n.tracer.Now()
	n.tracer.Record(obs.Span{
		Key: uint64(key), Ver: int64(ts.Version), Node: int32(n.id),
		Role: obs.RoleFollower, Phase: obs.PhaseGroupCommit,
		Start: stamp, End: ackStart,
	})
	n.send(to, ack)
	n.tracer.Record(obs.Span{
		Key: uint64(key), Ver: int64(ts.Version), Node: int32(n.id),
		Role: obs.RoleFollower, Phase: obs.PhaseVal,
		Start: ackStart, End: n.tracer.Now(),
	})
}

// onPersistBatch runs on the committing goroutine after each group
// commit and keeps the persist counter exact. No record waits on the
// log: a write learns of its local persist through its own
// acknowledgment.
func (n *Node) onPersistBatch(entries int) {
	n.Stats.Persists.Add(int64(entries))
}

func (n *Node) String() string {
	return fmt.Sprintf("node %d (%v)", n.id, n.cfg.Model)
}
