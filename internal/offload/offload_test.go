package offload

import (
	"sync"
	"testing"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/obs"
)

func msg(key ddp.Key, v ddp.Version) ddp.Message {
	return ddp.Message{
		Kind:  ddp.KindInv,
		Key:   key,
		TS:    ddp.Timestamp{Node: 1, Version: v},
		Value: []byte("v"),
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// recorder is a Handler that appends handled versions under a lock.
type recorder struct {
	mu   sync.Mutex
	vers []ddp.Version
}

func (r *recorder) handle(m ddp.Message, _ int64) {
	r.mu.Lock()
	r.vers = append(r.vers, m.TS.Version)
	r.mu.Unlock()
}

func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.vers)
}

func (r *recorder) snapshot() []ddp.Version {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]ddp.Version(nil), r.vers...)
}

// TestRoutePromotesHotKey: a key crossing the threshold flips to the
// NIC path immediately and its messages run on a core, in order.
func TestRoutePromotesHotKey(t *testing.T) {
	rec := &recorder{}
	e := New(Config{
		Cores: 1, InitialThreshold: 3, MinThreshold: 1, Epoch: -1,
		Handler: rec.handle,
	})
	e.Start()
	defer e.Close()

	key := ddp.Key(7)
	// Heat 1 and 2 are below the threshold of 3: host path.
	for v := ddp.Version(1); v <= 2; v++ {
		if e.Route(msg(key, v)) {
			t.Fatalf("version %d routed NIC below threshold", v)
		}
	}
	// Heat 3 crosses: promoted, this and later messages ride the NIC.
	for v := ddp.Version(3); v <= 5; v++ {
		if !e.Route(msg(key, v)) {
			t.Fatalf("version %d routed host after promotion", v)
		}
	}
	if e.Promotions() != 1 {
		t.Fatalf("promotions = %d, want 1", e.Promotions())
	}
	if e.NICFrames() != 3 || e.HostFrames() != 2 {
		t.Fatalf("frames split nic=%d host=%d, want 3/2", e.NICFrames(), e.HostFrames())
	}
	waitFor(t, "NIC handler to drain", func() bool { return rec.len() == 3 })
	got := rec.snapshot()
	for i, want := range []ddp.Version{3, 4, 5} {
		if got[i] != want {
			t.Fatalf("NIC handled order %v, want [3 4 5]", got)
		}
	}
}

// TestVFIFOOverflowDemotesWithoutReorder drives a one-deep vFIFO into
// overflow with the core wedged, and checks the documented demotion
// contract: the overflowing message is not dropped, every message for
// the key is handled exactly once in admission order, the key drains
// back to the host path, and the cooldown bars immediate re-promotion
// until epochs advance.
func TestVFIFOOverflowDemotesWithoutReorder(t *testing.T) {
	gate := make(chan struct{})
	first := make(chan struct{})
	var once sync.Once
	rec := &recorder{}
	handler := func(m ddp.Message, enq int64) {
		once.Do(func() {
			close(first)
			<-gate
		})
		rec.handle(m, enq)
	}
	e := New(Config{
		Cores: 1, VFIFODepth: 1, Slots: 16,
		InitialThreshold: 1, MinThreshold: 1, Epoch: -1,
		Handler: handler,
	})
	e.Start()
	defer e.Close()
	release := sync.OnceFunc(func() { close(gate) })
	defer release() // a failure must not leave Close waiting on the core

	key := ddp.Key(42)
	// Heat 1 meets the threshold of 1: immediate promotion.
	if !e.Route(msg(key, 1)) {
		t.Fatal("version 1 should promote and route NIC")
	}
	<-first // the core holds version 1; the vFIFO is empty
	if !e.Route(msg(key, 2)) {
		t.Fatal("version 2 should route NIC")
	}
	// The vFIFO (depth 1) is now full; version 3 overflows. Route blocks
	// it into the same queue — behind its predecessors — so it must run
	// on a goroutine until the core is released.
	res := make(chan bool, 1)
	go func() { res <- e.Route(msg(key, 3)) }()
	waitFor(t, "overflow to be recorded", func() bool { return e.overflows.Load() == 1 })
	release()
	if !<-res {
		t.Fatal("overflowing message must still be admitted, not dropped")
	}
	if e.Demotions() != 1 {
		t.Fatalf("demotions = %d, want 1", e.Demotions())
	}
	waitFor(t, "all three versions handled", func() bool { return rec.len() == 3 })
	got := rec.snapshot()
	for i, want := range []ddp.Version{1, 2, 3} {
		if got[i] != want {
			t.Fatalf("handled order %v, want [1 2 3]", got)
		}
	}

	// The vFIFO has drained past the demotion fence: the key is
	// host-owned again.
	if e.Route(msg(key, 4)) {
		t.Fatal("version 4 should route host after the drain completes")
	}
	// Cooldown: the key is still hot (heat >= threshold) but may not
	// re-promote until CooldownEpochs pass.
	if e.Route(msg(key, 5)) {
		t.Fatal("version 5 should stay host during cooldown")
	}
	if e.Promotions() != 1 {
		t.Fatalf("promotions during cooldown = %d, want 1", e.Promotions())
	}
	e.Tick() // epoch 1; the overflow epoch doubles the threshold to 2
	if e.Threshold() != 2 {
		t.Fatalf("post-overflow threshold = %d, want 2", e.Threshold())
	}
	// Populate epoch 1 with host-only traffic (heat resets per epoch,
	// and the cooldown bars promotion regardless) so the next tick sees
	// a cold NIC and decays the threshold.
	if e.Route(msg(key, 6)) {
		t.Fatal("version 6 should stay host during cooldown")
	}
	e.Tick() // epoch 2; the all-host epoch decays the threshold to 1
	if e.Threshold() != 1 {
		t.Fatalf("post-decay threshold = %d, want 1", e.Threshold())
	}
	// Cooldown expired (cool == epoch): the key re-promotes.
	if !e.Route(msg(key, 7)) {
		t.Fatal("version 7 should re-promote after the cooldown")
	}
	if e.Promotions() != 2 {
		t.Fatalf("promotions = %d, want 2", e.Promotions())
	}
	waitFor(t, "version 7 handled", func() bool { return rec.len() == 4 })
}

// TestClosedEngineRoutesHost: after Close, Route refuses — everything
// falls back to the host path.
func TestClosedEngineRoutesHost(t *testing.T) {
	e := New(Config{
		Handler:          func(ddp.Message, int64) {},
		InitialThreshold: 1, MinThreshold: 1, Epoch: -1,
	})
	e.Start()
	e.Close()
	e.Close() // idempotent
	if e.Route(msg(1, 1)) {
		t.Fatal("closed engine must route host")
	}
}

// TestCollectExportsCounters: the engine is an obs.Source exporting the
// offload.* family.
func TestCollectExportsCounters(t *testing.T) {
	rec := &recorder{}
	e := New(Config{
		Cores: 1, InitialThreshold: 1, MinThreshold: 1, Epoch: -1,
		Handler: rec.handle,
	})
	e.Start()
	defer e.Close()
	if !e.Route(msg(3, 1)) {
		t.Fatal("expected promotion at threshold 1")
	}
	e.Tick()
	var s obs.Snapshot
	e.Collect(&s)
	if s.Counter("offload.frames_nic") != 1 {
		t.Fatalf("offload.frames_nic = %d, want 1", s.Counter("offload.frames_nic"))
	}
	if s.Counter("offload.promotions") != 1 {
		t.Fatalf("offload.promotions = %d, want 1", s.Counter("offload.promotions"))
	}
	if s.Counter("offload.epochs") != 1 {
		t.Fatalf("offload.epochs = %d, want 1", s.Counter("offload.epochs"))
	}
	if s.GaugeValue("offload.threshold") != 1 {
		t.Fatalf("offload.threshold gauge = %d, want 1", s.GaugeValue("offload.threshold"))
	}
	if e.Describe() != "offload" {
		t.Fatalf("Describe() = %q", e.Describe())
	}

	// Two epochs later the key has cooled (no traffic in epoch 1): it
	// goes back to the host, which counts as cooled, not as an
	// (overflow) demotion; one message is too few to be cost-sampled.
	waitFor(t, "version 1 done", func() bool { return e.cores[0].done.Load() == 1 })
	e.Tick()
	if e.Route(msg(3, 2)) {
		t.Fatal("cooled key must route host once its vFIFO has drained")
	}
	s = obs.Snapshot{}
	e.Collect(&s)
	for name, want := range map[string]int64{"offload.cooled": 1, "offload.demotions": 0, "offload.overcommits": 0} {
		found := false
		for _, c := range s.Counters {
			found = found || c.Name == name
		}
		if !found || s.Counter(name) != want {
			t.Errorf("%s = %d (exported %v), want %d", name, s.Counter(name), found, want)
		}
	}
}

// TestCooledKeyDemotesWithoutReorder: an offloaded key that goes an
// epoch without traffic cools back to the host on its next message, but
// only once every entry queued for it has drained — until then its
// messages keep joining the vFIFO, behind them. A key that stays hot
// stays on the NIC path. The test plays the host side: a message Route
// returns false for runs to completion at once.
func TestCooledKeyDemotesWithoutReorder(t *testing.T) {
	gate := make(chan struct{})
	first := make(chan struct{})
	var once sync.Once
	rec := &recorder{}
	e := New(Config{
		Cores: 1, InitialThreshold: 2, MinThreshold: 2, MaxThreshold: 2, Epoch: -1,
		Handler: func(m ddp.Message, enq int64) {
			once.Do(func() {
				close(first)
				<-gate
			})
			rec.handle(m, enq)
		},
	})
	e.Start()
	defer e.Close()
	release := sync.OnceFunc(func() { close(gate) })
	defer release() // a failure must not leave Close waiting on the core

	const cold, hot = ddp.Key(7), ddp.Key(8)
	if cold.Hash()>>32&e.slotMask == hot.Hash()>>32&e.slotMask {
		t.Fatal("keys share a heat slot")
	}
	route := func(key ddp.Key, v ddp.Version, nic bool) {
		t.Helper()
		if got := e.Route(msg(key, v)); got != nic {
			t.Fatalf("key %d version %d: routed NIC = %v, want %v", key, v, got, nic)
		}
		if !nic {
			rec.handle(msg(key, v), 0)
		}
	}
	// Epoch 0: both keys promote at heat 2; the core holds cold's v2.
	route(cold, 1, false)
	route(cold, 2, true)
	<-first
	route(cold, 3, true)
	route(hot, 101, false)
	route(hot, 102, true)
	e.Tick()
	// Epoch 1: only the hot key has traffic; last epoch's heat 2 is not
	// below half the threshold, so it stays offloaded.
	route(hot, 103, true)
	route(hot, 104, true)
	e.Tick()
	// Epoch 2: cold saw nothing in epoch 1 and cools, but v2 and v3 are
	// still queued, so v4–v6 follow them into the vFIFO.
	route(cold, 4, true)
	route(hot, 105, true)
	route(cold, 5, true)
	route(cold, 6, true)
	release()
	waitFor(t, "the vFIFO to drain", func() bool { return e.cores[0].done.Load() == 9 })
	route(cold, 7, false) // drained past the fence: host-owned again
	route(hot, 106, true)
	waitFor(t, "hot version 106 handled", func() bool { return rec.len() == 13 })

	var coldOrder, hotOrder []ddp.Version
	for _, v := range rec.snapshot() {
		if v > 100 {
			hotOrder = append(hotOrder, v)
		} else {
			coldOrder = append(coldOrder, v)
		}
	}
	for i, v := range coldOrder {
		if v != ddp.Version(i+1) {
			t.Fatalf("cold key handled in order %v, want 1..7", coldOrder)
		}
	}
	for i, v := range hotOrder {
		if v != ddp.Version(101+i) {
			t.Fatalf("hot key handled in order %v, want 101..106", hotOrder)
		}
	}
	if e.cooled.Load() != 1 || e.Demotions() != 0 || e.Promotions() != 2 {
		t.Fatalf("cooled %d, overflow demotions %d, promotions %d; want 1, 0, 2",
			e.cooled.Load(), e.Demotions(), e.Promotions())
	}
}

// TestOvercommitRaisesThreshold pins the cost half of the feedback
// rule on a live engine, in both directions. Entries that wait behind a
// blocked core are an over-commit: the threshold doubles. A paced
// stream — each entry routed once the one before is handled — whose
// handler works longer than a core takes to wake is not: the threshold
// holds. Only the 64th entry of every 64 is timed, so each case routes
// 64 entries.
func TestOvercommitRaisesThreshold(t *testing.T) {
	const n = costSampleMask + 1
	newEngine := func(h func(ddp.Message, int64)) *Engine {
		e := New(Config{
			Cores: 1, VFIFODepth: 2 * n, InitialThreshold: 1, MinThreshold: 1, Epoch: -1,
			Handler: h,
		})
		e.Start()
		t.Cleanup(e.Close)
		return e
	}

	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	first := make(chan struct{})
	var once sync.Once
	e := newEngine(func(ddp.Message, int64) {
		once.Do(func() {
			close(first)
			<-gate
		})
	})
	t.Cleanup(release) // runs before Close: a failure must not wedge it
	for v := ddp.Version(1); v <= n; v++ {
		if !e.Route(msg(5, v)) {
			t.Fatalf("version %d routed host", v)
		}
		if v == 1 {
			<-first
		}
	}
	time.Sleep(10 * time.Millisecond) // the timed entry waits at least this long
	release()
	waitFor(t, "blocked stream done", func() bool { return e.cores[0].done.Load() == n })
	e.Tick()
	if e.overcommit.Load() != 1 || e.overflows.Load() != 0 || e.Threshold() != 2 {
		t.Fatalf("blocked core: overcommits %d, overflows %d, threshold %d; want 1, 0, 2",
			e.overcommit.Load(), e.overflows.Load(), e.Threshold())
	}

	e = newEngine(func(ddp.Message, int64) { time.Sleep(500 * time.Microsecond) })
	for v := ddp.Version(1); v <= n; v++ {
		if !e.Route(msg(5, v)) {
			t.Fatalf("version %d routed host", v)
		}
		waitFor(t, "paced entry done", func() bool { return e.cores[0].done.Load() == uint64(v) })
	}
	e.Tick()
	if e.overcommit.Load() != 0 || e.Threshold() != 1 {
		t.Fatalf("paced stream: overcommits %d, threshold %d; want 0, 1", e.overcommit.Load(), e.Threshold())
	}
}
