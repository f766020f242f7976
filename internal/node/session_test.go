package node

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/obs"
	"github.com/minos-ddp/minos/internal/transport"
)

// TestSessionsAreFrontendClients: a session's operations share the
// frontend's window and instruments with remote endpoints. With a
// window of 1 and one session read stalled on an RDLock, a second
// session's write is shed with ErrShed and counted as shed; once the
// release answers the read, both it and a later write count as served.
func TestSessionsAreFrontendClients(t *testing.T) {
	nodes, _ := newCluster(t, 2, ddp.LinSynch, func(c *Config) { c.ClientWindow = 1 })
	nd := nodes[1]
	counter := func(name string) int64 { return obs.Collect(nd).Counter("node." + name) }

	// A write to key 7 as its INV leaves it on node 1: RDLock taken,
	// value published, VAL still to come.
	ts := ddp.Timestamp{Node: 0, Version: 1}
	r := nd.Store().GetOrCreate(7)
	r.Lock()
	r.SnatchRDLock(ts)
	r.Publish([]byte("v7"), ts)
	r.Unlock()

	type result struct {
		v   []byte
		err error
	}
	read := make(chan result, 1)
	go func() {
		v, err := nd.Session().Read(7)
		read <- result{v, err}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for r.Parked() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("the session read never stalled")
		}
		time.Sleep(time.Millisecond)
	}

	if err := nd.Session().Write(8, []byte("x")); err != ErrShed {
		t.Fatalf("write beside a stalled read in a window of 1: %v, want ErrShed", err)
	}
	if got := counter("client_shed"); got != 1 {
		t.Fatalf("node.client_shed = %d, want 1", got)
	}
	served := counter("client_served")

	r.Lock()
	r.ReleaseRDLockIfOwner(ts)
	r.Unlock()
	nd.fire(r, false)
	select {
	case res := <-read:
		if res.err != nil || string(res.v) != "v7" {
			t.Fatalf("stalled read = (%q, %v), want v7", res.v, res.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the release never answered the stalled read")
	}
	if err := nd.Write(9, []byte("y")); err != nil {
		t.Fatal(err)
	}
	if got := counter("client_served"); got != served+2 {
		t.Fatalf("node.client_served = %d after a read and a write, want %d", got, served+2)
	}
}

// TestScopeWritesPersistThroughNode: under <Lin, Scope> Node.Write joins
// the node's default session scope and Node.Persist flushes it, so every
// write is durable on every node afterwards and no node keeps a scope
// buffer.
func TestScopeWritesPersistThroughNode(t *testing.T) {
	nodes, _ := newCluster(t, 3, ddp.LinScope, nil)
	const writes = 64
	for k := ddp.Key(0); k < writes; k++ {
		if err := nodes[0].Write(k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := nodes[0].Persist(); err != nil {
		t.Fatal(err)
	}
	ts := ddp.Timestamp{Node: 0, Version: 1}
	for _, nd := range nodes {
		for k := ddp.Key(0); k < writes; k++ {
			if !nd.Log().LocallyDurable(k, ts) {
				t.Fatalf("node %d: write to key %d not durable after Persist", nd.ID(), k)
			}
		}
	}
	waitNoScopeBuffers(t, nodes)
}

// TestSessionConcurrentWritesAndPersists: one session's operations may
// run concurrently. Under <Lin, Scope> four writers share a session
// while another goroutine keeps flushing its scope; after a last
// Persist every write is durable on every node and no node keeps a
// scope buffer — a write racing a persist joins the scope that persist
// closes or the next one, never neither.
func TestSessionConcurrentWritesAndPersists(t *testing.T) {
	nodes, _ := newCluster(t, 3, ddp.LinScope, nil)
	s := nodes[0].Session()
	const writers, each = 4, 50
	stop := make(chan struct{})
	flushed := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				flushed <- nil
				return
			default:
			}
			if err := s.Persist(); err != nil {
				flushed <- err
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := s.Write(ddp.Key(w*each+i), []byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	if err := s.Persist(); err != nil {
		t.Fatal(err)
	}
	ts := ddp.Timestamp{Node: 0, Version: 1}
	for _, nd := range nodes {
		for k := ddp.Key(0); k < writers*each; k++ {
			if !nd.Log().LocallyDurable(k, ts) {
				t.Fatalf("node %d: write to key %d not durable after the last Persist", nd.ID(), k)
			}
		}
	}
	waitNoScopeBuffers(t, nodes)
}

// waitNoScopeBuffers waits until no node holds a scope buffer: a
// follower drops its own on the [VAL_P]sc that trails a Persist.
func waitNoScopeBuffers(t *testing.T, nodes []*Node) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for _, nd := range nodes {
		for {
			nd.scopeMu.Lock()
			held := len(nd.scopeBuf)
			nd.scopeMu.Unlock()
			if held == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %d still holds %d scope buffers after Persist", nd.ID(), held)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestSessionWritesKeepRunToCompletion: session writers beside remote
// client writes on one node must not push its group commits off the
// committing goroutines onto the drain worker. Over the ring under
// Lin-Synch with a 1295 ns persist delay, a remote client keeps 8
// writes outstanding into node 0 while two session writers write there
// too; at least half of node 0's group commits must run inline. Session
// writes that woke the worker on every op held its drain token back to
// back, and only about a fifth of the commits then ran inline. A lost
// session completion fails after 30 s with a goroutine dump and each
// node's pending persists, parked waiters and in-flight writes.
func TestSessionWritesKeepRunToCompletion(t *testing.T) {
	const (
		nodes       = 3
		outstanding = 8
		writers     = 2
		runFor      = 300 * time.Millisecond
	)
	eps, client := newFabric(t, "ring", nodes, true)
	cluster := make([]*Node, nodes)
	for i := range cluster {
		cluster[i] = New(Config{Model: ddp.LinSynch, PersistDelay: 1295 * time.Nanosecond}, eps[i])
		cluster[i].Start()
	}
	t.Cleanup(func() {
		client.Close()
		for _, nd := range cluster {
			nd.Close()
		}
	})
	val := bytes.Repeat([]byte("v"), 64)

	stop := make(chan struct{})
	timedOut := make(chan struct{}) // closed just before the lost-write diagnostic fails the test
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		s := cluster[0].Session()
		key := ddp.Key(1000 * (w + 1))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := s.Write(key+ddp.Key(i%64), val); err != nil {
					select {
					case <-timedOut: // the cleanup closed the nodes under a lost write
					default:
						t.Error(err)
					}
					return
				}
			}
		}()
	}

	send := func(id uint64) {
		req := transport.ClientRequest{Op: transport.OpClientWrite, Key: ddp.Key(id % 64), Value: val}
		if err := client.Send(0, transport.Frame{Kind: transport.FrameClientRequest, Client: id, Req: req}); err != nil {
			t.Fatal(err)
		}
	}
	for id := uint64(0); id < outstanding; id++ {
		send(id)
	}
	end := time.Now().Add(runFor)
	for next, inflight := uint64(outstanding), outstanding; inflight > 0; {
		select {
		case f := <-client.Recv():
			if f.Resp.Status != transport.StatusOK {
				t.Fatalf("client write answered %v", f.Resp.Status)
			}
			if time.Now().Before(end) {
				send(next)
				next++
			} else {
				inflight--
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d client writes unanswered for 5 s", inflight)
		}
	}
	close(stop)
	writersDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(writersDone)
	}()
	select {
	case <-writersDone:
	case <-time.After(30 * time.Second):
		goroutines := logLostWrite(t, cluster)
		close(timedOut)
		t.Fatalf("a session write still unanswered 30 s after the run ended; goroutines:\n%s", goroutines)
	}

	s := obs.Collect(cluster[0].Pipeline())
	inline, batches := s.Counter("nvm.pipeline.inline_commits"), s.Counter("nvm.pipeline.batches")
	t.Logf("node 0: %d of %d group commits inline, %d worker wakes", inline, batches, s.Counter("nvm.pipeline.worker_wakes"))
	if batches == 0 || 2*inline < batches {
		t.Fatalf("node 0 ran %d of %d group commits inline, want at least half", inline, batches)
	}
}

// logLostWrite logs what each node of cluster still holds when a write
// lost its completion — pending persists, parked waiters and in-flight
// writes — so the failure shows which message or persist went missing,
// and returns a dump of every goroutine's stack.
func logLostWrite(t *testing.T, cluster []*Node) []byte {
	t.Helper()
	for _, nd := range cluster {
		s := obs.Collect(nd)
		t.Logf("node %d: nvm.pipeline.pending %d, node.record_waiters %d (parked now %d), in-flight writes %d",
			nd.ID(), s.GaugeValue("nvm.pipeline.pending"), s.GaugeValue("node.record_waiters"),
			nd.parked.Load(), inflightWrites(nd))
	}
	buf := make([]byte, 1<<20)
	return buf[:runtime.Stack(buf, true)]
}

// inflightWrites counts the write transactions n coordinates now.
func inflightWrites(n *Node) int {
	count := 0
	for _, st := range n.txns {
		st.mu.Lock()
		count += len(st.pending)
		st.mu.Unlock()
	}
	return count
}
