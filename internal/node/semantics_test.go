package node

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/transport"
)

// TestREnfBlocksReadsUntilDurable: under <Lin, REnf> a write's response
// returns at consistency time, but reads of the record must stall until
// it is durable everywhere (the RDLock is held until all ACK_Ps).
func TestREnfBlocksReadsUntilDurable(t *testing.T) {
	nodes, _ := newCluster(t, 3, ddp.LinREnf, func(c *Config) {
		c.PersistDelay = 50 * time.Millisecond
	})
	start := time.Now()
	if err := nodes[0].Write(1, []byte("renf")); err != nil {
		t.Fatal(err)
	}
	returned := time.Since(start)
	// The write response must NOT have waited for the 50ms persists.
	if returned > 40*time.Millisecond {
		t.Errorf("REnf write took %v; should return at consistency time", returned)
	}
	// But a read right now must stall until persists finish everywhere.
	v, err := nodes[0].Read(1)
	if err != nil {
		t.Fatal(err)
	}
	stalled := time.Since(start)
	if string(v) != "renf" {
		t.Fatalf("read %q", v)
	}
	if stalled < 45*time.Millisecond {
		t.Errorf("read returned after %v; REnf must block reads until durable (~50ms)", stalled)
	}
	// And by then the write is durable on the coordinator.
	if !nodes[0].Log().LocallyDurable(1, ddp.Timestamp{Node: 0, Version: 1}) {
		t.Error("record read before local durability under REnf")
	}
}

// settledGoroutines returns runtime.NumGoroutine once it has held still
// for a few samples, so goroutines of an earlier test that are still
// exiting do not count against the next measurement.
func settledGoroutines() int {
	last, still := runtime.NumGoroutine(), 0
	for i := 0; i < 200 && still < 3; i++ {
		time.Sleep(5 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n == last {
			still++
		} else {
			last, still = n, 0
		}
	}
	return last
}

// TestREnfWritesStartNoGoroutines: a returned Lin-REnf write's
// durability half is a continuation of its transaction, not a goroutine
// — 200 writes whose persists are all still pending leave the goroutine
// count where it was.
func TestREnfWritesStartNoGoroutines(t *testing.T) {
	nodes, _ := newCluster(t, 3, ddp.LinREnf, func(c *Config) {
		c.PersistDelay = 20 * time.Millisecond
	})
	before := settledGoroutines()
	for k := ddp.Key(0); k < 200; k++ {
		if err := nodes[0].Write(k, []byte("renf")); err != nil {
			t.Fatal(err)
		}
	}
	if grew := runtime.NumGoroutine() - before; grew >= 10 {
		t.Fatalf("200 REnf writes raised the goroutine count by %d", grew)
	}
}

// TestEventWriteDoesNotWaitForPersist: <Lin, Event> returns at
// consistency time even with slow NVM.
func TestEventWriteDoesNotWaitForPersist(t *testing.T) {
	nodes, _ := newCluster(t, 3, ddp.LinEvent, func(c *Config) {
		c.PersistDelay = 50 * time.Millisecond
	})
	start := time.Now()
	if err := nodes[0].Write(1, []byte("event")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 40*time.Millisecond {
		t.Errorf("Event write took %v; persists must be off the critical path", d)
	}
	// Reads are NOT blocked on durability under Event.
	if v, _ := nodes[0].Read(1); string(v) != "event" {
		t.Error("read after Event write failed")
	}
}

// TestSynchWritePaysPersist: <Lin, Synch> must wait for persists.
func TestSynchWritePaysPersist(t *testing.T) {
	nodes, _ := newCluster(t, 2, ddp.LinSynch, func(c *Config) {
		c.PersistDelay = 30 * time.Millisecond
	})
	start := time.Now()
	if err := nodes[0].Write(1, []byte("synch")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Errorf("Synch write took %v; must wait for the follower persist", d)
	}
}

// TestObsoleteWriteIsCutShort: an older concurrent write must be
// superseded, counted, and leave the newer value everywhere.
func TestObsoleteWriteIsCutShort(t *testing.T) {
	nodes, _ := newCluster(t, 3, ddp.LinSynch, nil)
	// Saturate one key from all nodes to force conflicts.
	var wg sync.WaitGroup
	for _, nd := range nodes {
		nd := nd
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if err := nd.Write(5, []byte(fmt.Sprintf("n%d-%d", nd.ID(), i))); err != nil {
					t.Errorf("write: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	var obsolete int64
	for _, nd := range nodes {
		obsolete += nd.Stats.ObsoleteWrites.Load()
	}
	// Convergence is the hard requirement; obsolete counts are
	// workload-dependent but should usually be nonzero here.
	waitConverged(t, nodes, 5, mustRead(t, nodes[0], 5))
	t.Logf("obsolete writes observed: %d", obsolete)
}

func mustRead(t *testing.T, n *Node, key ddp.Key) []byte {
	t.Helper()
	v, err := n.Read(key)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestScopeIsolation: flushing one session's scope must not persist
// another session's buffered writes.
func TestScopeIsolation(t *testing.T) {
	nodes, _ := newCluster(t, 2, ddp.LinScope, nil)
	a, b := nodes[0].Session(), nodes[0].Session()
	if err := a.Write(1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(2, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := a.Persist(); err != nil {
		t.Fatal(err)
	}
	ts1 := ddp.Timestamp{Node: 0, Version: 1}
	if !nodes[1].Log().LocallyDurable(1, ts1) {
		t.Error("session A's scope not durable after its flush")
	}
	if nodes[1].Log().LocallyDurable(2, ts1) {
		t.Error("session B's scope leaked into session A's flush")
	}
	if err := b.Persist(); err != nil {
		t.Fatal(err)
	}
	if !nodes[1].Log().LocallyDurable(2, ts1) {
		t.Error("session B's scope not durable after its own flush")
	}
}

// TestScopeFlushDoesNotStallDelivery: a scope flush's persist must not
// hold up the nodes' other traffic. Under Lin-Scope with a 50 ms device
// delay, node 0 flushes a session's scope, and 2 ms later a session on
// node 1 writes; that write needs only ACK_Cs, which its followers'
// delivery paths must send while the flush's group commits charge.
func TestScopeFlushDoesNotStallDelivery(t *testing.T) {
	const (
		delay = 50 * time.Millisecond
		bound = 20 * time.Millisecond
	)
	for _, fabric := range fabrics {
		t.Run(fabric, func(t *testing.T) {
			nodes := newFabricCluster(t, fabric, 3, ddp.LinScope, func(_ int, cfg *Config) {
				cfg.PersistDelay = delay
			})
			// Warm the write path off the measurement: a fresh cluster's
			// first operations pay a one-off cost of a few ms.
			if err := nodes[1].Write(99, []byte("warm")); err != nil {
				t.Fatal(err)
			}
			flusher, writer := nodes[0].Session(), nodes[1].Session()
			if err := flusher.Write(1, []byte("scoped")); err != nil {
				t.Fatal(err)
			}
			persisted := make(chan error, 1)
			go func() { persisted <- flusher.Persist() }()
			time.Sleep(2 * time.Millisecond)
			begin := time.Now()
			if err := writer.Write(2, []byte("beside")); err != nil {
				t.Fatal(err)
			}
			took := time.Since(begin)
			t.Logf("write beside the flush: %v", took)
			if took > bound {
				t.Errorf("a write beside a scope flush took %v, want under %v: delivery waited out the flush's %v persist", took, bound, delay)
			}
			select {
			case err := <-persisted:
				if err != nil {
					t.Fatalf("scope flush: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("scope flush still pending after 5 s")
			}
			for _, nd := range nodes {
				if !nd.Log().LocallyDurable(1, ddp.Timestamp{Node: 0, Version: 1}) {
					t.Errorf("node %d: the flushed scope's write is not durable", nd.ID())
				}
			}
		})
	}
}

// TestUniqueTimestampsSameNode: concurrent writes to one key from one
// node must get distinct TS_WR (§III-A: TS_WR is unique).
func TestUniqueTimestampsSameNode(t *testing.T) {
	nodes, _ := newCluster(t, 2, ddp.LinSynch, nil)
	const writers = 8
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := nodes[0].Write(9, []byte("w")); err != nil {
				t.Errorf("write: %v", err)
			}
		}()
	}
	wg.Wait()
	// The record's version must have advanced once per write: equal
	// timestamps would have collapsed bookkeeping.
	r := nodes[0].Store().Get(9)
	r.Lock()
	ver := r.Meta.VolatileTS.Version
	r.Unlock()
	if ver != writers {
		t.Fatalf("final version %d, want %d (one per unique TS)", ver, writers)
	}
}

// TestRecoveryIsIdempotent: recovering twice must not corrupt state.
func TestRecoveryIsIdempotent(t *testing.T) {
	nodes, _ := newCluster(t, 2, ddp.LinSynch, nil)
	for i := 0; i < 5; i++ {
		if err := nodes[0].Write(ddp.Key(i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 2; round++ {
		if err := nodes[1].Recover(0); err != nil {
			t.Fatal(err)
		}
	}
	// Give the shipped entries a moment to apply, then verify values.
	deadline := time.Now().Add(2 * time.Second)
	for i := 0; i < 5; i++ {
		for {
			v, _ := nodes[1].Read(ddp.Key(i))
			if bytes.Equal(v, []byte{byte(i)}) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("key %d wrong after double recovery: %v", i, v)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// Values must be exact, no duplicate-application damage.
	if v, _ := nodes[1].Read(3); !bytes.Equal(v, []byte{3}) {
		t.Fatal("value corrupted by repeated recovery")
	}
}

// TestStatsCounting: the observability counters move.
func TestStatsCounting(t *testing.T) {
	nodes, _ := newCluster(t, 2, ddp.LinSynch, nil)
	for i := 0; i < 3; i++ {
		if err := nodes[0].Write(ddp.Key(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nodes[0].Read(0); err != nil {
		t.Fatal(err)
	}
	if got := nodes[0].Stats.Writes.Load(); got != 3 {
		t.Errorf("writes stat %d, want 3", got)
	}
	if got := nodes[0].Stats.Reads.Load(); got != 1 {
		t.Errorf("reads stat %d, want 1", got)
	}
	if got := nodes[1].Stats.InvsHandled.Load(); got != 3 {
		t.Errorf("follower INVs %d, want 3", got)
	}
	// Synch persists at both nodes for every write.
	if got := nodes[0].Stats.Persists.Load(); got != 3 {
		t.Errorf("coordinator persists %d, want 3", got)
	}
	if got := nodes[1].Stats.Persists.Load(); got != 3 {
		t.Errorf("follower persists %d, want 3", got)
	}
}

// TestAliveMap: detector bookkeeping is visible and self is always live.
func TestAliveMap(t *testing.T) {
	nodes, _ := newCluster(t, 3, ddp.LinSynch, nil)
	alive := nodes[1].Alive()
	for id := ddp.NodeID(0); id < 3; id++ {
		if !alive[id] {
			t.Errorf("node %d should start alive", id)
		}
	}
}

// TestDoubleCloseIsSafe: Close must be idempotent.
func TestDoubleCloseIsSafe(t *testing.T) {
	net := transport.NewMemNetwork(2)
	n := New(Config{Model: ddp.LinSynch}, net.Endpoint(0))
	n.Start()
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStringer sanity.
func TestStringer(t *testing.T) {
	net := transport.NewMemNetwork(2)
	n := New(Config{Model: ddp.LinStrict}, net.Endpoint(1))
	defer n.Close()
	if s := n.String(); s != "node 1 (Lin-Strict)" {
		t.Errorf("String() = %q", s)
	}
	if n.ID() != 1 || n.Model() != ddp.LinStrict {
		t.Error("accessors wrong")
	}
}
