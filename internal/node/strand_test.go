package node

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/obs"
	"github.com/minos-ddp/minos/internal/transport"
)

// newClientFabric builds and starts an n-node cluster over fabric, all
// nodes on cfg, plus one client endpoint (ID n) that reaches every
// node. Closing the nodes and the client closes every endpoint.
func newClientFabric(t *testing.T, fabric string, n int, cfg Config) ([]*Node, transport.Transport) {
	t.Helper()
	eps, client := newFabric(t, fabric, n, true)
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = New(cfg, eps[i])
		nodes[i].Start()
	}
	t.Cleanup(func() {
		client.Close()
		for _, nd := range nodes {
			nd.Close()
		}
	})
	return nodes, client
}

// Shape of one TestDeferredPersistsNeverStrand round.
const (
	strandNodes     = 3
	strandRemote    = 100 // client writes per round, spread over the nodes
	strandWindow    = 24  // client writes in flight
	strandWriters   = 2   // in-process writer goroutines per node
	strandLocalEach = 40  // writes per in-process writer per round
	strandKeys      = 16
	strandDeadline  = 5 * time.Second
)

// TestDeferredPersistsNeverStrand drives remote client writes and
// in-process writers on every node at once, over every fabric, so INVs
// arrive on the delivery goroutines and inside in-process writers'
// PollInline. Under Lin-Synch and Lin-Strict those persists are
// deferred to a burst-end Flush; one left uncommitted withholds an ACK
// and its write never completes. Each round ends in quiescence, where a
// stranded entry stays stranded: every round's operations must finish
// within 5 s, and every pipeline's pending gauge must return to 0.
// Under the models no client waits on a durable ack for, no commit may
// run inline. A lost in-process write completion fails with each node's
// pending persists, parked waiters and in-flight writes and a goroutine
// dump.
func TestDeferredPersistsNeverStrand(t *testing.T) {
	const rounds = 4
	for _, fabric := range fabrics {
		for _, model := range []ddp.Model{ddp.LinSynch, ddp.LinStrict, ddp.LinREnf, ddp.LinEvent, ddp.LinScope} {
			for _, delay := range []time.Duration{0, 1295 * time.Nanosecond} {
				fabric, model, delay := fabric, model, delay
				t.Run(fmt.Sprintf("%s/%v/%v", fabric, model, delay), func(t *testing.T) {
					cluster, client := newClientFabric(t, fabric, strandNodes,
						Config{Model: model, PersistDelay: delay, ClientWindow: 256})
					for r := 0; r < rounds; r++ {
						strandRound(t, cluster, client, r)
					}
					var inline int64
					for _, nd := range cluster {
						inline += obs.Collect(nd.Pipeline()).Counter("nvm.pipeline.inline_commits")
					}
					switch durable := ddp.PolicyFor(model).Return == ddp.ReturnWhenDurable; {
					case durable && inline == 0:
						t.Fatal("no group commit ran inline")
					case !durable && inline != 0:
						t.Fatalf("inline_commits = %d, want 0: no client waits on these durable acks", inline)
					}
				})
			}
		}
	}
}

// strandRound runs one round of TestDeferredPersistsNeverStrand's
// traffic to quiescence: the in-process writers, the client's writes,
// then one client persist per node (a scope flush under <Lin, Scope>).
func strandRound(t *testing.T, cluster []*Node, client transport.Transport, round int) {
	t.Helper()
	deadline := time.After(strandDeadline)
	var wg sync.WaitGroup
	errs := make(chan error, strandNodes*strandWriters)
	for i := 0; i < strandNodes*strandWriters; i++ {
		i, nd := i, cluster[i%strandNodes]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for w := 0; w < strandLocalEach; w++ {
				if err := nd.Write(ddp.Key((i+w)%strandKeys), []byte("local")); err != nil {
					errs <- err
					return
				}
			}
		}()
	}

	const ops = strandRemote + strandNodes
	send := func(id int) {
		req := transport.ClientRequest{Op: transport.OpClientWrite, Key: ddp.Key(id % strandKeys), Value: []byte("remote")}
		if id >= strandRemote {
			req = transport.ClientRequest{Op: transport.OpClientPersist}
		}
		if err := client.Send(ddp.NodeID(id%strandNodes), transport.Frame{
			Kind: transport.FrameClientRequest, Client: uint64(round*ops + id), Req: req,
		}); err != nil {
			t.Fatalf("round %d: client send %d: %v", round, id, err)
		}
	}
	sent, got := 0, 0
	for ; sent < strandWindow; sent++ {
		send(sent)
	}
	for got < ops {
		select {
		case f := <-client.Recv():
			if f.Kind != transport.FrameClientResponse || f.Resp.Status != transport.StatusOK {
				t.Fatalf("round %d: client op %d answered %+v", round, f.Client, f)
			}
			got++
			// The persists go out once every write is answered.
			if sent < strandRemote || (sent < ops && got == sent) {
				send(sent)
				sent++
			}
		case <-deadline:
			t.Fatalf("round %d: %d of %d client ops answered within %v", round, got, ops, strandDeadline)
		}
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-deadline:
		goroutines := logLostWrite(t, cluster)
		t.Fatalf("round %d: in-process writes still running after %v; goroutines:\n%s", round, strandDeadline, goroutines)
	}
	close(errs)
	for err := range errs {
		t.Fatalf("round %d: in-process write: %v", round, err)
	}
	for _, nd := range cluster {
		pending := func() int64 { return obs.Collect(nd.Pipeline()).GaugeValue("nvm.pipeline.pending") }
		for end := time.Now().Add(strandDeadline); pending() != 0; time.Sleep(time.Millisecond) {
			if time.Now().After(end) {
				t.Fatalf("round %d: node %d: %d persists still pending", round, nd.ID(), pending())
			}
		}
	}
}
