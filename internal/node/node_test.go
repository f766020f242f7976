package node

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/kv"
	"github.com/minos-ddp/minos/internal/transport"
)

// newCluster builds an n-node in-process cluster under model.
func newCluster(t *testing.T, n int, model ddp.Model, mutate func(*Config)) ([]*Node, *transport.MemNetwork) {
	t.Helper()
	net := transport.NewMemNetwork(n)
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		cfg := Config{Model: model}
		if mutate != nil {
			mutate(&cfg)
		}
		nodes[i] = New(cfg, net.Endpoint(ddp.NodeID(i)))
		nodes[i].Start()
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
	})
	return nodes, net
}

// waitConverged polls until every node reports ts for key or times out.
func waitConverged(t *testing.T, nodes []*Node, key ddp.Key, want []byte) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ok := true
		for _, nd := range nodes {
			v, err := nd.Read(key)
			if err != nil || !bytes.Equal(v, want) {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			for _, nd := range nodes {
				v, _ := nd.Read(key)
				t.Logf("node %d: %q", nd.ID(), v)
			}
			t.Fatalf("cluster did not converge on key %d = %q", key, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWriteReplicatesEverywhere(t *testing.T) {
	for _, model := range ddp.Models {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			t.Parallel()
			nodes, _ := newCluster(t, 3, model, nil)
			if err := nodes[0].Write(7, []byte("value-7")); err != nil {
				t.Fatal(err)
			}
			waitConverged(t, nodes, 7, []byte("value-7"))
		})
	}
}

func TestAnyNodeCanCoordinate(t *testing.T) {
	// Leaderless: every node initiates writes.
	nodes, _ := newCluster(t, 5, ddp.LinSynch, nil)
	for i, nd := range nodes {
		key := ddp.Key(100 + i)
		val := []byte{byte(i)}
		if err := nd.Write(key, val); err != nil {
			t.Fatal(err)
		}
		waitConverged(t, nodes, key, val)
	}
}

func TestReadYourWrite(t *testing.T) {
	nodes, _ := newCluster(t, 3, ddp.LinSynch, nil)
	if err := nodes[1].Write(1, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	// Linearizable + Synch: once Write returns, every replica is
	// updated; a read anywhere must see it immediately.
	for _, nd := range nodes {
		v, err := nd.Read(1)
		if err != nil || string(v) != "abc" {
			t.Fatalf("node %d read %q, %v", nd.ID(), v, err)
		}
	}
}

func TestSynchDurableOnReturn(t *testing.T) {
	nodes, _ := newCluster(t, 3, ddp.LinSynch, nil)
	if err := nodes[0].Write(5, []byte("durable")); err != nil {
		t.Fatal(err)
	}
	// <Lin, Synch>: on return, the write is persisted at every node.
	for _, nd := range nodes {
		if !nd.Log().LocallyDurable(5, ddp.Timestamp{Node: 0, Version: 1}) {
			t.Fatalf("node %d: write not durable at return", nd.ID())
		}
	}
}

func TestStrictDurableOnReturn(t *testing.T) {
	nodes, _ := newCluster(t, 3, ddp.LinStrict, nil)
	if err := nodes[0].Write(5, []byte("durable")); err != nil {
		t.Fatal(err)
	}
	for _, nd := range nodes {
		if !nd.Log().LocallyDurable(5, ddp.Timestamp{Node: 0, Version: 1}) {
			t.Fatalf("node %d: Strict write not durable at return", nd.ID())
		}
	}
}

func TestEventualPersistsEventually(t *testing.T) {
	nodes, _ := newCluster(t, 3, ddp.LinEvent, nil)
	if err := nodes[0].Write(9, []byte("later")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		all := true
		for _, nd := range nodes {
			if !nd.Log().LocallyDurable(9, ddp.Timestamp{Node: 0, Version: 1}) {
				all = false
			}
		}
		if all {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("eventual persistency never happened")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestScopePersist(t *testing.T) {
	nodes, _ := newCluster(t, 3, ddp.LinScope, nil)
	s := nodes[0].Session()
	for i := 0; i < 4; i++ {
		if err := s.Write(ddp.Key(20+i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Before the flush, followers have buffered but not necessarily
	// persisted; after Persist returns, everything must be durable
	// everywhere.
	if err := s.Persist(); err != nil {
		t.Fatal(err)
	}
	for _, nd := range nodes {
		for i := 0; i < 4; i++ {
			key := ddp.Key(20 + i)
			if !nd.Log().LocallyDurable(key, ddp.Timestamp{Node: 0, Version: 1}) {
				t.Fatalf("node %d key %d not durable after [PERSIST]sc", nd.ID(), key)
			}
		}
	}
}

// TestMutualScopePersist: two nodes flush their own scopes at each
// other at the same time with a real persist delay, so each node's
// delivery goroutine parks in handlePersist (blocked on the peer
// scope's group commit) while its own Persist waits for an [ACK_P]sc
// queued behind that frame. The flushes must not deadlock: a parked
// handler waits only on the durability pipeline, never on a later
// frame.
func TestMutualScopePersist(t *testing.T) {
	nodes, _ := newCluster(t, 2, ddp.LinScope, func(cfg *Config) {
		cfg.PersistDelay = 2 * time.Millisecond
	})
	const rounds, perScope = 5, 4
	errs := make(chan error, len(nodes))
	for _, nd := range nodes {
		nd := nd
		go func() {
			s := nd.Session()
			for r := 0; r < rounds; r++ {
				for i := 0; i < perScope; i++ {
					key := ddp.Key(100*int(nd.ID()) + r*perScope + i)
					if err := s.Write(key, []byte{byte(r), byte(i)}); err != nil {
						errs <- err
						return
					}
				}
				if err := s.Persist(); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for range nodes {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(20 * time.Second):
			t.Fatal("mutual [PERSIST]sc flushes deadlocked")
		}
	}
	for _, nd := range nodes {
		if got := nd.Log().Len(); got != len(nodes)*rounds*perScope {
			t.Fatalf("node %d persisted %d entries, want %d", nd.ID(), got, len(nodes)*rounds*perScope)
		}
	}
}

func TestConcurrentWritersConverge(t *testing.T) {
	for _, model := range ddp.Models {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			t.Parallel()
			nodes, _ := newCluster(t, 3, model, nil)
			const keys = 4
			const perNode = 20
			var wg sync.WaitGroup
			for _, nd := range nodes {
				nd := nd
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perNode; i++ {
						key := ddp.Key(i % keys)
						val := []byte(fmt.Sprintf("n%d-i%d", nd.ID(), i))
						if err := nd.Write(key, val); err != nil {
							t.Errorf("write: %v", err)
							return
						}
					}
					if err := nd.Persist(); err != nil {
						t.Errorf("persist: %v", err)
					}
				}()
			}
			wg.Wait()

			// All replicas must agree on every key's version and value.
			deadline := time.Now().Add(5 * time.Second)
			for k := ddp.Key(0); k < keys; k++ {
				for {
					vals := make([][]byte, len(nodes))
					metas := make([]ddp.Timestamp, len(nodes))
					for i, nd := range nodes {
						v, err := nd.Read(k)
						if err != nil {
							t.Fatal(err)
						}
						vals[i] = v
						rec := nd.Store().Get(k)
						rec.Lock()
						metas[i] = rec.Meta.VolatileTS
						rec.Unlock()
					}
					same := true
					for i := 1; i < len(nodes); i++ {
						if metas[i] != metas[0] || !bytes.Equal(vals[i], vals[0]) {
							same = false
						}
					}
					if same {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("key %d diverged: ts=%v", k, metas)
					}
					time.Sleep(time.Millisecond)
				}
			}

			// No locks may leak.
			for _, nd := range nodes {
				nd.Store().Range(func(r *kv.Record) bool {
					r.Lock()
					defer r.Unlock()
					if r.Meta.RDLocked() {
						t.Errorf("node %d key %d: leaked RDLock %v", nd.ID(), r.Key, r.Meta.RDLockOwner)
					}
					if r.Meta.WRLock {
						t.Errorf("node %d key %d: leaked WRLock", nd.ID(), r.Key)
					}
					return true
				})
			}
		})
	}
}

func TestFailureDetectionUnblocksWrites(t *testing.T) {
	for _, remote := range []bool{false, true} {
		name := "in-process"
		if remote {
			name = "remote"
		}
		t.Run(name, func(t *testing.T) {
			nodes, net := newClientNet(t, 3, ddp.LinSynch, func(c *Config) {
				c.HeartbeatEvery = 10 * time.Millisecond
				c.FailAfter = 80 * time.Millisecond
			})
			client := net.Endpoint(3)
			// write returns once node 0 answers: the in-process call
			// returns, the remote one waits for its response frame.
			write := func(v string) error {
				if !remote {
					return nodes[0].Write(1, []byte(v))
				}
				req := transport.ClientRequest{Op: transport.OpClientWrite, Key: 1, Value: []byte(v)}
				if err := client.Send(0, transport.Frame{Kind: transport.FrameClientRequest, Client: 1, Req: req}); err != nil {
					return err
				}
				if f := <-client.Recv(); f.Resp.Status != transport.StatusOK {
					return fmt.Errorf("write %q answered %v", v, f.Resp.Status)
				}
				return nil
			}
			// Healthy write first.
			if err := write("pre"); err != nil {
				t.Fatal(err)
			}
			// Partition node 2 away and write again: the write must
			// complete once the detector declares node 2 failed.
			net.Disconnect(2)
			done := make(chan error, 1)
			go func() { done <- write("post") }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("write after failure: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("write blocked forever on a failed peer")
			}
			if alive := nodes[0].Alive(); alive[2] {
				t.Error("node 2 should be marked failed")
			}
			if v, _ := nodes[1].Read(1); string(v) != "post" {
				t.Errorf("survivor read %q, want post", v)
			}
		})
	}
}

// TestRecoveryCatchesUp: node 2 is partitioned away while the survivors
// commit writes, then rejoins and pulls the log tail from node 0. It
// must read each key's newest value and hold it durable at that
// version's timestamp — also for a key rewritten several times while it
// was away, whose superseded versions node 0's log no longer holds.
func TestRecoveryCatchesUp(t *testing.T) {
	type write struct {
		key ddp.Key
		val string
	}
	for _, tc := range []struct {
		name   string
		before []write // committed while node 2 is up
		away   []write // committed while node 2 is partitioned away
	}{
		{name: "distinct keys", away: []write{{0, "v0"}, {1, "v1"}, {2, "v2"}, {3, "v3"}, {4, "v4"}}},
		{
			name:   "one key rewritten",
			before: []write{{7, "w0"}},
			away:   []write{{7, "w1"}, {8, "x1"}, {7, "w2"}, {7, "w3"}, {8, "x2"}, {7, "w4"}},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nodes, net := newCluster(t, 3, ddp.LinSynch, func(c *Config) {
				c.HeartbeatEvery = 10 * time.Millisecond
				c.FailAfter = 80 * time.Millisecond
			})
			want := map[ddp.Key]string{}
			commit := func(ws []write) {
				for _, w := range ws {
					if err := nodes[0].Write(w.key, []byte(w.val)); err != nil {
						t.Fatal(err)
					}
					want[w.key] = w.val
				}
			}
			commit(tc.before)
			net.Disconnect(2)
			// Wait for the survivors to notice.
			deadline := time.Now().Add(2 * time.Second)
			for nodes[0].Alive()[2] {
				if time.Now().After(deadline) {
					t.Fatal("failure never detected")
				}
				time.Sleep(5 * time.Millisecond)
			}
			commit(tc.away)
			// Node 2 rejoins and pulls the log tail from node 0.
			net.Reconnect(2)
			if err := nodes[2].Recover(0); err != nil {
				t.Fatal(err)
			}
			deadline = time.Now().Add(2 * time.Second)
			for {
				ok := true
				for key, val := range want {
					if v, _ := nodes[2].Read(key); string(v) != val {
						ok = false
						break
					}
				}
				if ok {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("recovered node never caught up")
				}
				time.Sleep(5 * time.Millisecond)
			}
			for key := range want {
				ts, ok := nodes[0].Log().DurableTS(key)
				if !ok || !nodes[2].Log().LocallyDurable(key, ts) {
					got, _ := nodes[2].Log().DurableTS(key)
					t.Fatalf("key %d: recovered node durable at %v, want node 0's %v", key, got, ts)
				}
			}
			if nodes[2].Stats.Recoveries.Load() == 0 {
				t.Error("recovery stat not recorded")
			}
		})
	}
}

// TestLogMemoryBoundedByKeys: a node's durable log keeps one version per
// key, so 20k writes over 64 keys leave the cluster's live heap about
// where 64 keys' worth of writes left it, not one value copy per write
// per replica (20k × 3 × 128 B ≈ 7.7 MB of values alone).
func TestLogMemoryBoundedByKeys(t *testing.T) {
	const keys, writes, limit = 64, 20_000, 4 << 20
	nodes, _ := newCluster(t, 3, ddp.LinSynch, nil)
	val := bytes.Repeat([]byte("v"), 128)
	for k := 0; k < keys; k++ {
		if err := nodes[0].Write(ddp.Key(k), val); err != nil {
			t.Fatal(err)
		}
	}
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := liveHeap()
	for i := 0; i < writes; i++ {
		if err := nodes[i%3].Write(ddp.Key(i%keys), val); err != nil {
			t.Fatal(err)
		}
	}
	after := liveHeap()
	growth := int64(after) - int64(before)
	t.Logf("live heap %d → %d B (%+d) over %d writes", before, after, growth, writes)
	if growth >= limit {
		t.Fatalf("%d writes over %d keys grew the live heap by %d B, want < %d", writes, keys, growth, limit)
	}
	if got := nodes[1].Log().Len(); got != keys+writes {
		t.Fatalf("node 1 applied %d persists, want %d", got, keys+writes)
	}
}

func TestReadBlocksWhileRDLocked(t *testing.T) {
	nodes, _ := newCluster(t, 2, ddp.LinSynch, func(c *Config) {
		c.PersistDelay = 30 * time.Millisecond // widen the write window
	})
	start := time.Now()
	done := make(chan struct{})
	go func() {
		nodes[0].Write(3, []byte("slow"))
		close(done)
	}()
	waitRDLocked(t, nodes[0], 3, done)
	v, err := nodes[0].Read(3)
	if err != nil {
		t.Fatal(err)
	}
	<-done
	// The read must have observed the completed write (it blocked), not
	// a torn or empty state.
	if string(v) != "slow" {
		t.Fatalf("read %q during locked window", v)
	}
	if time.Since(start) < 30*time.Millisecond {
		t.Error("read returned before the write's persist window — lock not honored")
	}
}

// waitRDLocked polls until key's record exists on n and a write holds
// its RDLock, failing if done (the write's completion) closes first or
// the wait runs past a generous bound.
func waitRDLocked(t *testing.T, n *Node, key ddp.Key, done <-chan struct{}) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if r := n.Store().Get(key); r != nil {
			r.Lock()
			locked := r.Meta.RDLocked()
			r.Unlock()
			if locked {
				return
			}
		}
		select {
		case <-done:
			t.Fatal("write finished before its RDLock was observed")
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the write to take the RDLock")
		}
		time.Sleep(20 * time.Microsecond)
	}
}

func TestWriteAfterCloseFails(t *testing.T) {
	nodes, _ := newCluster(t, 2, ddp.LinSynch, nil)
	nodes[0].Close()
	if err := nodes[0].Write(1, []byte("x")); err != ErrClosed {
		t.Fatalf("write on closed node: %v, want ErrClosed", err)
	}
	if _, err := nodes[0].Read(1); err != ErrClosed {
		t.Fatalf("read on closed node: %v, want ErrClosed", err)
	}
}

func TestTCPCluster(t *testing.T) {
	// A 3-node cluster over real TCP loopback.
	nodes := newFabricCluster(t, "tcp", 3, ddp.LinSynch, nil)
	if err := nodes[0].Write(77, []byte("over-tcp")); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, nodes, 77, []byte("over-tcp"))
}
