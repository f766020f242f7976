package node

import (
	"bytes"
	"testing"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/transport"
)

// newClientCluster builds an n-node cluster with the client frontend
// enabled plus one client endpoint wired to every node.
func newClientCluster(t *testing.T, n int, model ddp.Model, mutate func(*Config)) ([]*Node, *transport.MemTransport) {
	t.Helper()
	nodes, net := newClientNet(t, n, model, mutate)
	return nodes, net.Endpoint(ddp.NodeID(n))
}

// newClientNet is newClientCluster returning the network, whose
// endpoint n is the client.
func newClientNet(t *testing.T, n int, model ddp.Model, mutate func(*Config)) ([]*Node, *transport.MemNetwork) {
	t.Helper()
	net := transport.NewMemNetworkClients(n, 1)
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		cfg := Config{Model: model, ClientWindow: 256}
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

// call issues one client op and waits for its response.
func call(t *testing.T, ep *transport.MemTransport, to ddp.NodeID, client uint64, req transport.ClientRequest) transport.ClientResponse {
	t.Helper()
	if err := ep.Send(to, transport.Frame{Kind: transport.FrameClientRequest, Client: client, Req: req}); err != nil {
		t.Fatal(err)
	}
	select {
	case f := <-ep.Recv():
		if f.Kind != transport.FrameClientResponse || f.Client != client {
			t.Fatalf("unexpected frame %+v", f)
		}
		return f.Resp
	case <-time.After(5 * time.Second):
		t.Fatalf("no response for client %d", client)
		return transport.ClientResponse{}
	}
}

func TestClientFrontendWriteReadPersist(t *testing.T) {
	for _, model := range []ddp.Model{ddp.LinSynch, ddp.LinScope} {
		t.Run(model.String(), func(t *testing.T) {
			nodes, client := newClientCluster(t, 3, model, nil)

			w := call(t, client, 0, 7, transport.ClientRequest{
				Op: transport.OpClientWrite, Key: 42, Value: []byte("hello"),
			})
			if w.Status != transport.StatusOK {
				t.Fatalf("write status = %v", w.Status)
			}
			p := call(t, client, 0, 7, transport.ClientRequest{Op: transport.OpClientPersist})
			if p.Status != transport.StatusOK {
				t.Fatalf("persist status = %v", p.Status)
			}
			r := call(t, client, 0, 7, transport.ClientRequest{Op: transport.OpClientRead, Key: 42})
			if r.Status != transport.StatusOK || !bytes.Equal(r.Value, []byte("hello")) {
				t.Fatalf("read = %+v", r)
			}
			// The write replicated: a different node serves it too.
			waitConverged(t, nodes, 42, []byte("hello"))
			r2 := call(t, client, 1, 8, transport.ClientRequest{Op: transport.OpClientRead, Key: 42})
			if r2.Status != transport.StatusOK || !bytes.Equal(r2.Value, []byte("hello")) {
				t.Fatalf("read from node 1 = %+v", r2)
			}
		})
	}
}

// TestClientReadNotFound: a key holding an empty value reads StatusOK
// and empty, a key never written reads StatusNotFound.
func TestClientReadNotFound(t *testing.T) {
	_, client := newClientCluster(t, 3, ddp.LinSynch, nil)
	set := call(t, client, 0, 1, transport.ClientRequest{Op: transport.OpClientWrite, Key: 5, Value: []byte{}})
	if set.Status != transport.StatusOK {
		t.Fatalf("set 5 \"\" status = %v", set.Status)
	}
	if r := call(t, client, 0, 2, transport.ClientRequest{Op: transport.OpClientRead, Key: 5}); r.Status != transport.StatusOK || len(r.Value) != 0 {
		t.Fatalf("get 5 = %+v, want StatusOK and an empty value", r)
	}
	if r := call(t, client, 0, 3, transport.ClientRequest{Op: transport.OpClientRead, Key: 6}); r.Status != transport.StatusNotFound {
		t.Fatalf("get 6 = %+v, want StatusNotFound", r)
	}
}

// TestClientFrontendSheds pins the admission contract: a full window
// answers StatusShed immediately instead of queueing unboundedly, and
// every admitted request is still answered — offered equals responses.
// With a window of 2, at most 2 of the 64 burst writes are in flight
// while each waits out a 2 ms persist, so the burst must shed.
func TestClientFrontendSheds(t *testing.T) {
	_, client := newClientCluster(t, 3, ddp.LinSynch, func(c *Config) {
		c.ClientWindow = 2
		c.PersistDelay = 2 * time.Millisecond
	})

	const offered = 64
	for i := 0; i < offered; i++ {
		if err := client.Send(0, transport.Frame{
			Kind:   transport.FrameClientRequest,
			Client: uint64(i),
			Req:    transport.ClientRequest{Op: transport.OpClientWrite, Key: ddp.Key(i), Value: []byte("v")},
		}); err != nil {
			t.Fatal(err)
		}
	}
	var ok, shed int
	for got := 0; got < offered; got++ {
		select {
		case f := <-client.Recv():
			switch f.Resp.Status {
			case transport.StatusOK:
				ok++
			case transport.StatusShed:
				shed++
			default:
				t.Fatalf("unexpected status in %+v", f)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("responses stalled at %d/%d (ok=%d shed=%d)", got, offered, ok, shed)
		}
	}
	if shed == 0 {
		t.Fatal("window 2 with 64 burst writes shed nothing")
	}
	if ok+shed != offered {
		t.Fatalf("ok=%d shed=%d, want sum %d", ok, shed, offered)
	}
}

// TestClientFrontendOverRingRTC drives client ops through the
// inline-polled ring path, where a client op runs on the poll-token
// holder at admission and completes on the acknowledgment that finishes
// it — an op that waited there instead would deadlock on the poll
// token. Fifty round trips complete or the test times out.
func TestClientFrontendOverRingRTC(t *testing.T) {
	const nodes = 3
	net := transport.NewRingNetworkClients(nodes, 1, 256<<10, 0)
	cluster := make([]*Node, nodes)
	for i := 0; i < nodes; i++ {
		cluster[i] = New(Config{
			Model: ddp.LinSynch, ClientWindow: 64,
		}, net.Endpoint(ddp.NodeID(i)))
		cluster[i].Start()
	}
	defer func() {
		for _, nd := range cluster {
			nd.Close()
		}
	}()
	client := net.Endpoint(ddp.NodeID(nodes))
	defer client.Close()

	for i := 0; i < 50; i++ {
		to := ddp.NodeID(i % nodes)
		w := callRing(t, client, to, uint64(i), transport.ClientRequest{
			Op: transport.OpClientWrite, Key: ddp.Key(i % 5), Value: []byte("rv"),
		})
		if w.Status != transport.StatusOK {
			t.Fatalf("write %d status = %v", i, w.Status)
		}
	}
	r := callRing(t, client, 1, 99, transport.ClientRequest{Op: transport.OpClientRead, Key: 3})
	if r.Status != transport.StatusOK || !bytes.Equal(r.Value, []byte("rv")) {
		t.Fatalf("read = %+v", r)
	}
}

func callRing(t *testing.T, ep *transport.RingTransport, to ddp.NodeID, client uint64, req transport.ClientRequest) transport.ClientResponse {
	t.Helper()
	if err := ep.Send(to, transport.Frame{Kind: transport.FrameClientRequest, Client: client, Req: req}); err != nil {
		t.Fatal(err)
	}
	select {
	case f := <-ep.Recv():
		if f.Kind != transport.FrameClientResponse || f.Client != client {
			t.Fatalf("unexpected frame %+v", f)
		}
		return f.Resp
	case <-time.After(10 * time.Second):
		t.Fatalf("no response for client %d", client)
		return transport.ClientResponse{}
	}
}

// TestClientPersistCoversOwnWrites pins the remote Lin-Scope contract:
// OpClientPersist flushes the scope holding every write its client
// endpoint had admitted at that node, so once it answers OK each of
// those writes is durable on every node.
func TestClientPersistCoversOwnWrites(t *testing.T) {
	nodes, client := newClientCluster(t, 3, ddp.LinScope, nil)
	const writes = 8
	for k := ddp.Key(0); k < writes; k++ {
		w := call(t, client, 0, uint64(k), transport.ClientRequest{
			Op: transport.OpClientWrite, Key: k, Value: []byte{byte(k)},
		})
		if w.Status != transport.StatusOK {
			t.Fatalf("write %d status = %v", k, w.Status)
		}
	}
	if p := call(t, client, 0, 99, transport.ClientRequest{Op: transport.OpClientPersist}); p.Status != transport.StatusOK {
		t.Fatalf("persist status = %v", p.Status)
	}
	for _, nd := range nodes {
		missing := 0
		for k := ddp.Key(0); k < writes; k++ {
			if _, ok := nd.Log().DurableTS(k); !ok {
				missing++
			}
		}
		if missing > 0 {
			t.Errorf("node %d: %d of %d persisted writes have no durable log entry", nd.ID(), missing, writes)
		}
	}
}

// TestClientWindowStartsNoGoroutines: the client frontend executes
// operations on the delivery goroutine, so its window sizes nothing
// that runs.
func TestClientWindowStartsNoGoroutines(t *testing.T) {
	started := func(window int) int {
		before := settledGoroutines()
		newClientCluster(t, 5, ddp.LinSynch, func(c *Config) { c.ClientWindow = window })
		return settledGoroutines() - before
	}
	narrow := started(1)
	if wide := started(1 << 16); wide > narrow {
		t.Fatalf("a 5-node cluster started %d goroutines with ClientWindow 1<<16, %d with 1", wide, narrow)
	}
}
