package nvm

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/obs"
)

// Pipeline is the software analogue of the paper's dFIFO (§V-B.4,
// modeled for the offloaded runtime in simcluster): updates headed for
// NVM are enqueued on the node's one persist queue and drained by one
// worker. Each drain is a group commit — one LatencyModel charge covers
// every entry that coalesced into the batch while the previous batch
// was draining — and completes through the OnAck hook: no goroutine
// waits on a batch.
//
// Ordering: batches drain strictly in FIFO order and a batch appends
// its entries in slice order, so the log's Seq order is the enqueue
// order, across all keys. That is stronger than the per-record order
// Fig 2 relies on; §V-B.4 would permit cross-record reordering (obsolete
// entries are filtered when the log is applied), but one engine never
// produces it.
//
// Every persist takes this one path, whatever the latency model: a
// zero model charges nothing, but its entries still drain in group
// commits. A commit runs on the drain worker, on the caller's Flush
// after DeferAck, or on a Persist caller — run to completion, as a NIC
// core runs a vFIFO entry and its dFIFO persist (§V-B); a drain token
// keeps one at a time.
//
// The path is allocation-free in steady state: the queue recycles its
// value buffers (a free list) and alternates between two batches (cur
// accumulating, spare draining), and durable acknowledgments ride
// entry fields dispatched through the OnAck hook, so no entry carries
// a closure.
type Pipeline struct {
	log     *Log
	lat     LatencyModel
	onBatch func(entries int)
	onAck   func(to ddp.NodeID, kind ddp.MsgKind, key ddp.Key, ts ddp.Timestamp, scope ddp.ScopeID, stamp int64)

	// q is the one dFIFO. token is held across each group commit, hooks
	// included, so acks leave in commit order and Close can wait them out.
	q     drainQueue
	token sync.Mutex

	stop   chan struct{}
	closed atomic.Bool
	wg     sync.WaitGroup

	// Instruments live in one registry under "nvm.pipeline". The spin
	// and park counters expose the drain worker's CPU model (DESIGN.md
	// D8): spin_charges batches burned on the yield-spin path,
	// spin_yields the Gosched iterations that cost, timer_parks batches
	// that slept on a runtime timer instead; inline_commits Flush's
	// commits, worker_wakes the signals that reached the worker.
	reg           *obs.Registry
	batches       *obs.Counter
	entries       *obs.Counter
	spinCharges   *obs.Counter
	spinYields    *obs.Counter
	timerParks    *obs.Counter
	inlineCommits *obs.Counter
	workerWakes   *obs.Counter
	pending       *obs.Gauge
	batchEntries  *obs.Histogram
	drainNs       *obs.Histogram
}

// PipelineConfig tunes a Pipeline.
type PipelineConfig struct {
	// Lat is the modeled NVM latency charged once per drained batch.
	Lat LatencyModel
	// OnBatch, when set, runs on the committing goroutine after a batch
	// is appended, with the batch's entry count. The node layer uses it
	// to keep its persist counters exact.
	OnBatch func(entries int)
	// OnAck, when set, runs on the committing goroutine for every ack
	// entry strictly after its batch is appended — the persist-before-
	// ack order — carrying the acknowledgment's addressing and the
	// caller's stamp as plain values. One hook for the pipeline replaces
	// one closure per entry. A set's ack (EnqueueSetAck) carries its
	// scope alone: zero key, timestamp and stamp.
	OnAck func(to ddp.NodeID, kind ddp.MsgKind, key ddp.Key, ts ddp.Timestamp, scope ddp.ScopeID, stamp int64)
}

// Update is one record update of a scope's set (EnqueueSetAck).
type Update struct {
	Key   ddp.Key
	TS    ddp.Timestamp
	Value []byte
}

// batchEntry is one queued update; value is a queue-owned recycled
// buffer. An acknowledgment dispatched via the OnAck hook rides the
// ack fields; setAck marks a set's, which acknowledges the scope alone.
type batchEntry struct {
	key      ddp.Key
	ts       ddp.Timestamp
	value    []byte
	scope    ddp.ScopeID
	ackTo    ddp.NodeID
	ackKind  ddp.MsgKind
	ackStamp int64
	hasAck   bool
	setAck   bool
}

// drainBatch is a reusable group commit.
type drainBatch struct {
	entries []batchEntry
	bytes   int
}

// maxFreeBufs bounds the queue's value-buffer free list; beyond it,
// drained buffers are dropped for the GC (a burst's memory is not
// pinned forever).
const maxFreeBufs = 256

type drainQueue struct {
	mu    sync.Mutex
	cur   *drainBatch   // accumulating
	spare *drainBatch   // recycled, ready to become cur at next swap
	bufs  [][]byte      // value-buffer free list
	wake  chan struct{} // cap 1: at most one pending wake signal
}

// NewPipeline builds a pipeline draining into log and starts its
// worker. Close stops it.
func NewPipeline(log *Log, cfg PipelineConfig) *Pipeline {
	p := &Pipeline{
		log:     log,
		lat:     cfg.Lat,
		onBatch: cfg.OnBatch,
		onAck:   cfg.OnAck,
		q:       drainQueue{cur: &drainBatch{}, wake: make(chan struct{}, 1)},
		stop:    make(chan struct{}),
	}
	p.reg = obs.NewRegistry("nvm.pipeline")
	p.batches = p.reg.Counter("batches")
	p.entries = p.reg.Counter("entries")
	p.spinCharges = p.reg.Counter("spin_charges")
	p.spinYields = p.reg.Counter("spin_yields")
	p.timerParks = p.reg.Counter("timer_parks")
	p.inlineCommits = p.reg.Counter("inline_commits")
	p.workerWakes = p.reg.Counter("worker_wakes")
	p.pending = p.reg.Gauge("pending")
	p.batchEntries = p.reg.Histogram("batch_entries")
	p.drainNs = p.reg.Histogram("drain_ns")
	p.wg.Add(1)
	go p.drainWorker()
	return p
}

// Log returns the log the pipeline drains into.
func (p *Pipeline) Log() *Log { return p.log }

// Batches returns how many group commits have drained.
func (p *Pipeline) Batches() int64 { return p.batches.Load() }

// Entries returns how many updates have drained.
func (p *Pipeline) Entries() int64 { return p.entries.Load() }

// Describe implements obs.Source.
func (p *Pipeline) Describe() string { return "nvm.pipeline" }

// Collect implements obs.Source, appending the pipeline's instruments
// (batch/entry counts, spin vs. park accounting, queue depth, batch
// size and drain latency distributions) to s.
func (p *Pipeline) Collect(s *obs.Snapshot) { p.reg.Collect(s) }

// Close stops the drain worker and waits out a commit in flight on a
// caller; a Persist charging its commit returns false. Updates still
// queued are dropped and their acks never fire (a closing node makes
// no further durability promises).
func (p *Pipeline) Close() {
	if !p.closed.CompareAndSwap(false, true) {
		return
	}
	close(p.stop)
	p.wg.Wait()
	// Flush and Persist check closed under the token, so once Close has
	// held it no commit runs or starts.
	p.token.Lock()
	p.token.Unlock()
}

// add appends e to the accumulating batch; the caller holds q.mu. The
// value lands in a recycled queue buffer — the steady-state enqueue
// allocates nothing.
//
//minos:hotpath
func (q *drainQueue) add(e batchEntry) {
	if n := len(q.bufs); n > 0 {
		buf := q.bufs[n-1]
		q.bufs = q.bufs[:n-1]
		e.value = append(buf[:0], e.value...)
	} else {
		e.value = append([]byte(nil), e.value...)
	}
	q.cur.entries = append(q.cur.entries, e)
	q.cur.bytes += len(e.value)
}

// enqueue adds one update to the current batch, signalling the drain
// worker if wake is set.
//
//minos:hotpath
func (p *Pipeline) enqueue(e batchEntry, wake bool) {
	q := &p.q
	q.mu.Lock()
	q.add(e)
	q.mu.Unlock()
	p.pending.Add(1)
	if wake {
		p.Wake()
	}
}

// Wake signals the drain worker.
//
//minos:hotpath
func (p *Pipeline) Wake() {
	select {
	case p.q.wake <- struct{}{}:
		p.workerWakes.Add(1)
	default: // a wake is already pending; the worker will see the entries
	}
}

// Enqueue submits an update without waiting for durability; callers
// learn of it through the log (LocallyDurable) and the OnBatch hook.
// Returns false (and drops the update) if the pipeline is closed.
func (p *Pipeline) Enqueue(key ddp.Key, ts ddp.Timestamp, value []byte, scope ddp.ScopeID) bool {
	if p.closed.Load() {
		return false
	}
	p.enqueue(batchEntry{key: key, ts: ts, value: value, scope: scope}, true)
	return true
}

// EnqueueAck submits an update whose durable acknowledgment — kind,
// addressed to to — is dispatched through the OnAck hook strictly after
// the group commit holding the update drains. The addressing and stamp
// (an opaque value handed back to OnAck; the node passes a trace start
// time, 0 when untraced) ride the entry as plain values, so the ack path
// allocates nothing. Returns false (and drops the update) if the
// pipeline is closed.
//
//minos:hotpath
func (p *Pipeline) EnqueueAck(key ddp.Key, ts ddp.Timestamp, value []byte, scope ddp.ScopeID, to ddp.NodeID, kind ddp.MsgKind, stamp int64) bool {
	return p.enqueueAck(key, ts, value, scope, to, kind, stamp, true)
}

// DeferAck is EnqueueAck without waking the drain worker: the caller
// owes a Flush (or Wake) before it parks or loops.
//
//minos:hotpath
func (p *Pipeline) DeferAck(key ddp.Key, ts ddp.Timestamp, value []byte, scope ddp.ScopeID, to ddp.NodeID, kind ddp.MsgKind, stamp int64) bool {
	return p.enqueueAck(key, ts, value, scope, to, kind, stamp, false)
}

//minos:hotpath
func (p *Pipeline) enqueueAck(key ddp.Key, ts ddp.Timestamp, value []byte, scope ddp.ScopeID, to ddp.NodeID, kind ddp.MsgKind, stamp int64, wake bool) bool {
	if p.closed.Load() {
		return false
	}
	p.enqueue(batchEntry{key: key, ts: ts, value: value, scope: scope, ackTo: to, ackKind: kind, ackStamp: stamp, hasAck: true}, wake)
	return true
}

// Flush runs the pending group commits on the caller: the worker's
// drain, with a short charge waited out on the wall clock. The worker
// gets them instead when the token is held elsewhere (its holder may
// already have checked the queue) or a charge would park on a timer.
//
//minos:lockorder nvm.Pipeline.token < nvm.drainQueue.mu
//minos:lockorder nvm.Pipeline.token < nvm.logShard.mu
//minos:hotpath
func (p *Pipeline) Flush() {
	if p.pending.Load() == 0 {
		return
	}
	if !p.token.TryLock() {
		p.Wake()
		return
	}
	if !p.closed.Load() {
		p.drain(true)
	}
	p.token.Unlock()
}

// Persist submits an update and runs the pending group commits on the
// caller, under the drain token, as the worker would: it returns once
// the update is durable (true), or false if the pipeline closed before
// it was. A commit another token holder took over is complete by the
// time the token is free, so an update that holder appended before
// Close still reports true.
func (p *Pipeline) Persist(key ddp.Key, ts ddp.Timestamp, value []byte, scope ddp.ScopeID) bool {
	if p.closed.Load() {
		return false
	}
	p.enqueue(batchEntry{key: key, ts: ts, value: value, scope: scope}, false)
	p.token.Lock()
	ok := !p.closed.Load() && p.drain(false)
	p.token.Unlock()
	return ok || p.log.LocallyDurable(key, ts)
}

// EnqueueSetAck submits the updates of scope (a scope flush) as one set
// whose durable acknowledgment — kind, addressed to to — is dispatched
// through the OnAck hook once the set has drained. The set is enqueued
// under one queue lock, so it lands in one batch, and its last entry
// carries the ack; batches drain in order, so the ack also covers
// everything enqueued before the set. An empty set is acknowledged at
// once, on the caller. Returns false (and drops the set) if the
// pipeline is closed.
func (p *Pipeline) EnqueueSetAck(scope ddp.ScopeID, set []Update, to ddp.NodeID, kind ddp.MsgKind) bool {
	if p.closed.Load() {
		return false
	}
	if len(set) == 0 {
		if p.onAck != nil {
			p.onAck(to, kind, 0, ddp.Timestamp{}, scope, 0)
		}
		return true
	}
	q := &p.q
	q.mu.Lock()
	for i, u := range set {
		e := batchEntry{key: u.Key, ts: u.TS, value: u.Value, scope: scope}
		if i == len(set)-1 {
			e.ackTo, e.ackKind, e.hasAck, e.setAck = to, kind, true, true
		}
		q.add(e)
	}
	q.mu.Unlock()
	p.pending.Add(int64(len(set)))
	p.Wake()
	return true
}

// spinLatencyNs is the largest modeled device latency waited out where
// the commit runs; longer ones park on a timer on the drain worker
// (Table II's writes are ~1.3 µs; a timer wake costs tens of µs). The
// worker yield-spins, and each Gosched is a run-queue trip: loaded, one
// yield per batch and a 15.7 µs drain for a 1.3 µs charge, after the
// wake. A busy spin there measured worse (it holds a vCPU the protocol
// needs); a Flush caller, already running, busy-waits (DESIGN.md D8).
const spinLatencyNs = 100_000

// timerPool recycles the park timers of the long-latency charge path so
// a sweep of 100µs+ batches costs one timer allocation total, not one
// per batch. Timers are only pooled drained (fired or stopped+drained),
// so Reset is always safe.
var timerPool sync.Pool

// chargeLatency models the device write for one batch: a bounded
// wall-clock wait inline, a yield-spin or a pooled stop-aware timer
// park on the worker (see spinLatencyNs). Returns false when the
// pipeline stopped mid-charge.
func (p *Pipeline) chargeLatency(ns int64, inline bool) bool {
	if ns <= 0 {
		return true
	}
	if inline {
		deadline := time.Now().Add(time.Duration(ns))
		for time.Now().Before(deadline) {
		}
		return true
	}
	if ns <= spinLatencyNs {
		p.spinCharges.Add(1)
		deadline := time.Now().Add(time.Duration(ns))
		for time.Now().Before(deadline) {
			if p.closed.Load() {
				return false
			}
			p.spinYields.Add(1)
			runtime.Gosched()
		}
		return true
	}
	p.timerParks.Add(1)
	t, _ := timerPool.Get().(*time.Timer)
	if t == nil {
		t = time.NewTimer(time.Duration(ns))
	} else {
		t.Reset(time.Duration(ns))
	}
	select {
	case <-p.stop:
		if !t.Stop() {
			<-t.C // drain so the pooled timer is Reset-safe
		}
		timerPool.Put(t)
		return false
	case <-t.C:
		timerPool.Put(t)
		return true
	}
}

// drainWorker drains what no Flush commits, under the token. The charge
// selects on stop so a closing node never waits out a persist delay;
// its timer calls take the runtime's GODEBUG bisect lock, a leaf.
//
//minos:lockorder nvm.Pipeline.token < bisect.dedup.mu
func (p *Pipeline) drainWorker() {
	defer p.wg.Done()
	for {
		select {
		case <-p.stop:
			return
		case <-p.q.wake:
		}
		p.token.Lock()
		ok := p.drain(false)
		p.token.Unlock()
		if !ok {
			return
		}
	}
}

// drain processes every accumulated batch, returning false when the
// pipeline stopped mid-drain; the caller holds the token. Steady state
// alternates two batches: while one accumulates as cur, the other
// drains here and is recycled to spare at the end.
func (p *Pipeline) drain(inline bool) bool {
	q := &p.q
	for {
		q.mu.Lock()
		b := q.cur
		if len(b.entries) == 0 {
			q.mu.Unlock()
			return true
		}
		ns := p.lat.PersistNs(b.bytes)
		if inline && ns > spinLatencyNs {
			q.mu.Unlock()
			p.Wake()
			return true
		}
		if q.spare != nil {
			q.cur, q.spare = q.spare, nil
		} else {
			q.cur = &drainBatch{}
		}
		q.mu.Unlock()

		// Group commit: one modeled device write covers the batch.
		start := time.Now()
		if !p.chargeLatency(ns, inline) {
			return false // aborted mid-charge: the batch's acks never fire
		}
		// Appending in slice order makes the log's Seq order the enqueue
		// order; Append applies each entry to its key's durable version,
		// copying the value, so the batch's buffers are free for reuse
		// right after.
		for i := range b.entries {
			e := &b.entries[i]
			p.log.Append(e.key, e.ts, e.value, e.scope)
		}
		p.drainNs.Observe(int64(time.Since(start)))

		// Bookkeeping runs before the hooks so a dispatched durable ack
		// (or a returned Persist) implies the counters include its entry.
		p.entries.Add(int64(len(b.entries)))
		p.batches.Add(1)
		if inline {
			p.inlineCommits.Add(1)
		}
		p.batchEntries.Observe(int64(len(b.entries)))
		if p.onBatch != nil {
			p.onBatch(len(b.entries))
		}
		if p.onAck != nil {
			for i := range b.entries {
				e := &b.entries[i]
				switch {
				case e.setAck:
					p.onAck(e.ackTo, e.ackKind, 0, ddp.Timestamp{}, e.scope, 0)
				case e.hasAck:
					p.onAck(e.ackTo, e.ackKind, e.key, e.ts, e.scope, e.ackStamp)
				}
			}
		}
		// pending drops only after the hooks, so a zero gauge means every
		// enqueued entry is appended, counted and acknowledged.
		p.pending.Add(-int64(len(b.entries)))

		// Recycle: value buffers back on the free list, entries cleared
		// (dropping value references), batch parked as spare.
		q.mu.Lock()
		for i := range b.entries {
			e := &b.entries[i]
			if e.value != nil && len(q.bufs) < maxFreeBufs {
				q.bufs = append(q.bufs, e.value)
			}
			*e = batchEntry{}
		}
		b.entries = b.entries[:0]
		b.bytes = 0
		if q.spare == nil {
			q.spare = b
		}
		q.mu.Unlock()
	}
}
