// Package offload is the live MINOS-O datapath: a soft-NIC engine that
// takes over protocol-message handling for hot keys. A dedicated pool
// of "NIC cores" (goroutines standing in for the SmartNIC's wimpy
// cores) drains per-core bounded vFIFOs of volatile protocol work —
// INV apply, ack counting, VAL fan-out. The engine has no dFIFO of its
// own: a follower persist issued on a NIC core enqueues into the node's
// group-commit pipeline (nvm.Pipeline), the same one dFIFO the host
// path uses, and its acknowledgment leaves from there. A key always
// maps to the same core (ddp.Key.Hash affinity), so per-key FIFO is
// preserved on either side of the boundary.
//
// The boundary is adaptive both ways. A fixed-size heat table (epoch-
// bucketed counters, one atomic word per slot) promotes keys that cross
// a threshold, retuned each epoch by the feedback rule in policy.go. A
// key goes back to the host path when its vFIFO overflows (backpressure
// degrades the offload instead of stalling writers) or when it cools
// (last epoch's heat below half the threshold). Ownership transfers
// never reorder a key's messages: the host side runs each message to
// completion before Route sees the next, so promotion is immediate, and
// demotion is fenced on the core's drain count so no host-handled
// message overtakes one still queued in the vFIFO.
package offload

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/obs"
)

// Config tunes an Engine. The zero value of every field selects a
// sensible default; Handler is the only required field.
type Config struct {
	// Cores is the soft-NIC core pool size (rounded up to a power of
	// two). Each core owns one vFIFO and handles a fixed hash slice of
	// the key space. Default 2.
	Cores int
	// VFIFODepth bounds each core's vFIFO. An admission that finds the
	// vFIFO full demotes the key back to the host path. Default 1024.
	VFIFODepth int
	// Slots sizes the heat table (rounded up to a power of two); keys
	// hashing to the same slot share heat and offload state, a
	// count-min-style approximation that keeps the table fixed-size
	// and wait-free. Default 4096.
	Slots int
	// InitialThreshold is the heat (messages per epoch) at which a key
	// is promoted to the NIC path. Default 32.
	InitialThreshold uint32
	// MinThreshold/MaxThreshold clamp the adaptive threshold. Defaults
	// 8 and 65536.
	MinThreshold uint32
	MaxThreshold uint32
	// MaxPromotionsPerEpoch is the flow-install budget: promotions
	// beyond it are denied (and counted, feeding the threshold rule).
	// Default 64.
	MaxPromotionsPerEpoch int
	// CooldownEpochs bars an overflow-demoted slot from re-promotion
	// for this many epochs, damping promote/demote oscillation. Default 2.
	CooldownEpochs uint32
	// Epoch is the feedback period. Zero selects the 10ms default; a
	// negative value disables the ticker entirely (epochs then advance
	// only through explicit Tick calls — the deterministic-test mode).
	Epoch time.Duration

	// Handler runs one protocol message on a NIC core. enq is the
	// admission timestamp from Now (0 when stamping is disabled); the
	// message's Value is engine-owned and must not be retained after
	// the handler returns unless copied.
	Handler func(m ddp.Message, enq int64)
	// Now, when non-nil, stamps vFIFO admissions so the handler can
	// attribute queue residency (the PhaseNICQueue trace span). Nil
	// disables stamping and the hot path pays no clock read.
	Now func() int64
}

func (c Config) withDefaults() Config {
	if c.Cores <= 0 {
		c.Cores = 2
	}
	c.Cores = ceilPow2(c.Cores)
	if c.VFIFODepth <= 0 {
		c.VFIFODepth = 1024
	}
	if c.Slots <= 0 {
		c.Slots = 4096
	}
	c.Slots = ceilPow2(c.Slots)
	if c.InitialThreshold == 0 {
		c.InitialThreshold = 32
	}
	if c.MinThreshold == 0 {
		c.MinThreshold = 8
	}
	if c.MaxThreshold == 0 {
		c.MaxThreshold = 65536
	}
	if c.MaxPromotionsPerEpoch <= 0 {
		c.MaxPromotionsPerEpoch = 64
	}
	if c.CooldownEpochs == 0 {
		c.CooldownEpochs = 2
	}
	if c.Epoch == 0 {
		c.Epoch = 10 * time.Millisecond
	}
	return c
}

func ceilPow2(v int) int {
	p := 1
	for p < v {
		p <<= 1
	}
	return p
}

// Slot offload states. Transitions only happen inside Route, which the
// node calls from its delivery goroutine (one caller at a time), so
// state moves are stores; the fields stay atomic because NIC cores and
// the epoch ticker read them concurrently.
const (
	slotHost uint32 = iota
	slotOffloaded
	// slotDraining: the key was demoted (overflow or cooling) but its
	// vFIFO still holds queued messages; traffic keeps routing NIC
	// (behind them) until the core's done count passes the fence.
	slotDraining
)

// slot is one heat-table entry.
type slot struct {
	// heat packs epoch<<32|count in one word so a stale epoch's count
	// resets with a single CAS on the first touch of a new epoch.
	heat  atomic.Uint64
	state atomic.Uint32
	// fence is the NIC core admission count a slotDraining slot waits
	// for the core's completion count to pass.
	fence atomic.Uint64
	// cool is the epoch before which a demoted slot may not re-promote.
	cool atomic.Uint32
}

// costSampleMask: a NIC core times the 64th of every 64 admissions.
const costSampleMask = 63

// touch bumps the slot's heat for the current epoch and returns it. On
// a slot's first touch of an epoch, cooled reports whether last epoch's
// heat (0 if untouched then) was below half of thr.
func (s *slot) touch(epoch, thr uint32) (heat uint32, cooled bool) {
	for {
		h := s.heat.Load()
		if last := uint32(h >> 32); last != epoch {
			if s.heat.CompareAndSwap(h, uint64(epoch)<<32|1) {
				if last != epoch-1 {
					h = 0
				}
				return 1, 2*uint64(uint32(h)) < uint64(thr)
			}
			continue
		}
		if s.heat.CompareAndSwap(h, h+1) {
			return uint32(h) + 1, false
		}
	}
}

// vEntry is one vFIFO element; buf owns a copy of the message value so
// borrowed transport storage (inline-polled frames) never escapes the
// delivery callback.
type vEntry struct {
	m   ddp.Message
	buf []byte
	enq int64
	t0  int64 // admission time (Engine.mono) if cost-sampled, else 0
}

// nicCore is one soft-NIC core: a bounded vFIFO and the monotonic
// admission/completion counts the demotion fence reads.
type nicCore struct {
	q    chan *vEntry
	enq  atomic.Uint64
	done atomic.Uint64
}

// Engine is the soft-NIC offload engine. Construct with New, wire the
// callbacks via Config, then Start; Route is the datapath entry.
type Engine struct {
	cfg      Config
	cores    []*nicCore
	coreMask uint64
	slots    []slot
	slotMask uint64

	epoch     atomic.Uint32
	threshold atomic.Uint32

	// Per-epoch feedback accumulators, swapped to zero at each Tick.
	epPromoted atomic.Int64
	epDenied   atomic.Int64
	epOverflow atomic.Int64
	epNIC      atomic.Int64
	epHost     atomic.Int64
	epWait     atomic.Int64 // sampled vFIFO residency, ns
	epWork     atomic.Int64 // sampled handling work, ns
	base       time.Time    // Engine.mono's origin

	ventries sync.Pool

	closed atomic.Bool
	stop   chan struct{}
	wg     sync.WaitGroup

	reg        *obs.Registry
	framesNIC  *obs.Counter
	framesHost *obs.Counter
	promotions *obs.Counter
	demotions  *obs.Counter
	cooled     *obs.Counter
	overcommit *obs.Counter
	denied     *obs.Counter
	overflows  *obs.Counter
	epochs     *obs.Counter
	thresholdG *obs.Gauge
	offloadedG *obs.Gauge
	vDepth     *obs.Histogram
}

// New builds an engine; call Start before routing.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:      cfg,
		coreMask: uint64(cfg.Cores - 1),
		slots:    make([]slot, cfg.Slots),
		slotMask: uint64(cfg.Slots - 1),
		stop:     make(chan struct{}),
		base:     time.Now(),
	}
	e.cores = make([]*nicCore, cfg.Cores)
	for i := range e.cores {
		e.cores[i] = &nicCore{q: make(chan *vEntry, cfg.VFIFODepth)}
	}
	e.threshold.Store(cfg.InitialThreshold)
	e.ventries.New = func() any { return &vEntry{} }
	e.reg = obs.NewRegistry("offload")
	e.framesNIC = e.reg.Counter("frames_nic")
	e.framesHost = e.reg.Counter("frames_host")
	e.promotions = e.reg.Counter("promotions")
	e.demotions = e.reg.Counter("demotions")
	e.cooled = e.reg.Counter("cooled")
	e.overcommit = e.reg.Counter("overcommits")
	e.denied = e.reg.Counter("promotions_denied")
	e.overflows = e.reg.Counter("vfifo_overflows")
	e.epochs = e.reg.Counter("epochs")
	e.thresholdG = e.reg.Gauge("threshold")
	e.offloadedG = e.reg.Gauge("offloaded_slots")
	e.vDepth = e.reg.Histogram("vfifo_depth")
	e.thresholdG.Set(int64(cfg.InitialThreshold))
	return e
}

// Start launches the core pool and (unless disabled) the epoch ticker.
func (e *Engine) Start() {
	for _, c := range e.cores {
		e.wg.Add(1)
		go e.coreLoop(c)
	}
	if e.cfg.Epoch > 0 {
		e.wg.Add(1)
		go e.epochLoop()
	}
}

// Close stops the engine. Entries still queued at close are abandoned
// — their handlers would observe the closing node and bail anyway.
// Idempotent.
func (e *Engine) Close() {
	if !e.closed.CompareAndSwap(false, true) {
		return
	}
	close(e.stop)
	e.wg.Wait()
}

// Describe implements obs.Source.
func (e *Engine) Describe() string { return "offload" }

// Collect implements obs.Source.
func (e *Engine) Collect(s *obs.Snapshot) { e.reg.Collect(s) }

// Threshold returns the current promotion threshold.
func (e *Engine) Threshold() uint32 { return e.threshold.Load() }

// Epoch returns the current epoch number.
func (e *Engine) Epoch() uint32 { return e.epoch.Load() }

// NICFrames and HostFrames report how many routed messages took each
// path — the B-vs-O split tests and benches read.
func (e *Engine) NICFrames() int64 { return e.framesNIC.Load() }

// HostFrames is the host-path half of the routing split.
func (e *Engine) HostFrames() int64 { return e.framesHost.Load() }

// Demotions reports vFIFO-overflow demotions.
func (e *Engine) Demotions() int64 { return e.demotions.Load() }

// Promotions reports keys installed onto the NIC path.
func (e *Engine) Promotions() int64 { return e.promotions.Load() }

// coreFor returns the NIC core owning key's hash slice.
func (e *Engine) coreFor(h uint64) *nicCore { return e.cores[h&e.coreMask] }

// Route decides which side of the offload boundary handles m and, when
// the answer is the NIC pool, enqueues it there. A false return means
// the caller must run the message through the host path, to completion,
// before routing the next one. Route must be called from one goroutine
// at a time (the node's delivery goroutine) — that serialization is
// what makes the per-key ownership transitions raceless, and the
// run-to-completion contract is what lets promotion skip a fence.
//
//minos:hotpath
func (e *Engine) Route(m ddp.Message) bool {
	if e.closed.Load() {
		return false
	}
	h := m.Key.Hash() >> 32
	s := &e.slots[h&e.slotMask]
	thr := e.threshold.Load()
	heat, cooled := s.touch(e.epoch.Load(), thr)
	state := s.state.Load()
	if state == slotOffloaded && cooled {
		// Cooled: back to the host through the overflow drain fence.
		s.fence.Store(e.coreFor(h).enq.Load())
		s.state.Store(slotDraining)
		e.cooled.Add(1)
		state = slotDraining
	}
	switch state {
	case slotHost:
		if heat < thr || !e.tryPromote(s) {
			e.hostRouted()
			return false
		}
	case slotOffloaded:
		// Fall through to the enqueue below.
	case slotDraining:
		c := e.coreFor(h)
		if c.done.Load() >= s.fence.Load() {
			// Every NIC-queued message admitted before the fence has
			// completed; the key is host-owned again.
			s.state.Store(slotHost)
			e.offloadedG.Add(-1)
			e.hostRouted()
			return false
		}
		// Still draining: this message must stay behind the queued
		// entries, so it joins the same vFIFO and pushes the fence.
		if !e.enqueueBlocking(c, e.admit(c, m)) {
			e.hostRouted()
			return false
		}
		s.fence.Store(c.enq.Load())
		e.nicRouted(c)
		return true
	}
	c := e.coreFor(h)
	ent := e.admit(c, m)
	c.enq.Add(1)
	select {
	case c.q <- ent:
		e.nicRouted(c)
		return true
	default:
		c.enq.Add(^uint64(0))
	}
	// vFIFO overflow: demote the key back to the host path. The
	// overflowing message still has to run behind its queued
	// predecessors, so it blocks into the same vFIFO; the slot then
	// drains (fenced on the core's completion count) before Route
	// hands the key to the host side — no message is dropped and none
	// is reordered.
	e.overflows.Add(1)
	e.epOverflow.Add(1)
	if !e.enqueueBlocking(c, ent) {
		e.hostRouted()
		return false
	}
	s.fence.Store(c.enq.Load())
	s.cool.Store(e.epoch.Load() + e.cfg.CooldownEpochs)
	s.state.Store(slotDraining)
	e.demotions.Add(1)
	e.nicRouted(c)
	return true
}

// tryPromote installs the slot onto the NIC path if the cooldown and
// the per-epoch budget allow. Ownership transfers immediately: every
// earlier host-routed message has already run to completion.
func (e *Engine) tryPromote(s *slot) bool {
	if s.cool.Load() > e.epoch.Load() {
		return false
	}
	if e.epPromoted.Load() >= int64(e.cfg.MaxPromotionsPerEpoch) {
		e.denied.Add(1)
		e.epDenied.Add(1)
		return false
	}
	e.promotions.Add(1)
	e.epPromoted.Add(1)
	e.offloadedG.Add(1)
	s.state.Store(slotOffloaded)
	return true
}

// admit checks a vFIFO entry for core c out of the pool, copying the
// message value into engine-owned storage (inline-polled transport
// frames borrow their buffers), and stamps it if c times it.
func (e *Engine) admit(c *nicCore, m ddp.Message) *vEntry {
	ent := e.ventries.Get().(*vEntry)
	ent.m = m
	ent.enq = 0
	if e.cfg.Now != nil {
		ent.enq = e.cfg.Now()
	}
	ent.t0 = 0
	if c.enq.Load()&costSampleMask == costSampleMask {
		ent.t0 = e.mono()
	}
	if len(m.Value) > 0 {
		ent.buf = append(ent.buf[:0], m.Value...)
		ent.m.Value = ent.buf
	} else {
		ent.m.Value = nil
	}
	return ent
}

// enqueueBlocking admits ent to c even if the vFIFO is full, blocking
// until space frees (the core drains independently, so this is
// backpressure, not deadlock). False means the engine closed first.
func (e *Engine) enqueueBlocking(c *nicCore, ent *vEntry) bool {
	c.enq.Add(1)
	select {
	case c.q <- ent:
		return true
	case <-e.stop:
		c.enq.Add(^uint64(0))
		e.ventries.Put(ent)
		return false
	}
}

//minos:hotpath
func (e *Engine) nicRouted(c *nicCore) {
	e.framesNIC.Add(1)
	e.epNIC.Add(1)
	e.vDepth.Observe(int64(len(c.q)))
}

//minos:hotpath
func (e *Engine) hostRouted() {
	e.framesHost.Add(1)
	e.epHost.Add(1)
}

// mono is the cost samples' clock: ns since New, never 0.
func (e *Engine) mono() int64 { return int64(time.Since(e.base)) + 1 }

// coreLoop is one soft-NIC core: drain the vFIFO, run each message to
// completion, bump the completion count the demotion fence watches. A
// sampled entry adds its residency and work to the epoch's cost sums.
func (e *Engine) coreLoop(c *nicCore) {
	defer e.wg.Done()
	for {
		select {
		case <-e.stop:
			return
		case ent := <-c.q:
			var start int64
			if ent.t0 != 0 {
				start = e.mono()
			}
			e.cfg.Handler(ent.m, ent.enq)
			if start != 0 {
				e.epWait.Add(start - ent.t0)
				e.epWork.Add(e.mono() - start)
			}
			c.done.Add(1)
			ent.m = ddp.Message{}
			e.ventries.Put(ent)
		}
	}
}

// epochLoop advances the feedback epoch on the configured period.
func (e *Engine) epochLoop() {
	defer e.wg.Done()
	t := time.NewTicker(e.cfg.Epoch)
	defer t.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-t.C:
			e.Tick()
		}
	}
}

// Tick closes one feedback epoch: fold the epoch's observations into
// the threshold rule, publish the new threshold, advance the epoch
// (which lazily resets every slot's heat on its next touch). Exported
// so deterministic tests — and manual-epoch configurations — can drive
// the loop without a clock.
func (e *Engine) Tick() {
	fb := Feedback{
		Promoted:   e.epPromoted.Swap(0),
		Denied:     e.epDenied.Swap(0),
		Overflows:  e.epOverflow.Swap(0),
		NICFrames:  e.epNIC.Swap(0),
		HostFrames: e.epHost.Swap(0),
		Residency:  e.epWait.Swap(0),
		Work:       e.epWork.Swap(0),
	}
	if fb.overcommitted() {
		e.overcommit.Add(1)
	}
	next := NextThreshold(e.threshold.Load(), fb, PolicyConfig{Min: e.cfg.MinThreshold, Max: e.cfg.MaxThreshold})
	e.threshold.Store(next)
	e.thresholdG.Set(int64(next))
	e.epoch.Add(1)
	e.epochs.Add(1)
}
