package transport

import (
	"bytes"
	"testing"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
)

func TestCodecClientFrames(t *testing.T) {
	req := Frame{
		Kind:   FrameClientRequest,
		From:   7,
		Client: 1<<40 | 12345,
		Req: ClientRequest{
			Op:    OpClientWrite,
			Key:   0xFEED,
			Value: []byte("payload"),
		},
	}
	got := roundTrip(t, req)
	if got.Kind != FrameClientRequest || got.From != 7 || got.Client != req.Client {
		t.Fatalf("request header mismatch: %+v", got)
	}
	if got.Req.Op != OpClientWrite || got.Req.Key != 0xFEED ||
		!bytes.Equal(got.Req.Value, req.Req.Value) {
		t.Fatalf("request mismatch: %+v", got.Req)
	}

	resp := Frame{
		Kind:   FrameClientResponse,
		From:   2,
		Client: 99,
		Resp:   ClientResponse{Op: OpClientRead, Status: StatusOK, Value: []byte("v")},
	}
	got = roundTrip(t, resp)
	if got.Client != 99 || got.Resp.Op != OpClientRead || got.Resp.Status != StatusOK ||
		!bytes.Equal(got.Resp.Value, []byte("v")) {
		t.Fatalf("response mismatch: %+v", got)
	}

	shed := roundTrip(t, Frame{Kind: FrameClientResponse, Client: 5, Resp: ClientResponse{Op: OpClientPersist, Status: StatusShed}})
	if shed.Resp.Status != StatusShed || len(shed.Resp.Value) != 0 {
		t.Fatalf("shed response mismatch: %+v", shed)
	}

	hello := roundTrip(t, Frame{Kind: FrameHello, From: 11, Addr: "127.0.0.1:4242"})
	if hello.Kind != FrameHello || hello.Addr != "127.0.0.1:4242" {
		t.Fatalf("hello mismatch: %+v", hello)
	}
}

// TestMemNetworkClientTopology pins the client-endpoint contract: client
// endpoints peer with every node, nodes keep peering only with nodes,
// and a node broadcast never lands in a client's receive queue.
func TestMemNetworkClientTopology(t *testing.T) {
	net := NewMemNetworkClients(3, 2)
	node0, client := net.Endpoint(0), net.Endpoint(3)

	if got := node0.Peers(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("node peers = %v, want [1 2]", got)
	}
	if got := client.Peers(); len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("client peers = %v, want [0 1 2]", got)
	}

	// Client request in, response demuxed back by client id.
	req := Frame{Kind: FrameClientRequest, Client: 42, Req: ClientRequest{Op: OpClientRead, Key: 1}}
	if err := client.Send(0, req); err != nil {
		t.Fatal(err)
	}
	in := <-node0.Recv()
	if in.From != 3 || in.Client != 42 || in.Req.Op != OpClientRead {
		t.Fatalf("node saw %+v", in)
	}
	if err := node0.Send(in.From, Frame{Kind: FrameClientResponse, Client: in.Client, Resp: ClientResponse{Op: OpClientRead, Status: StatusOK}}); err != nil {
		t.Fatal(err)
	}
	out := <-client.Recv()
	if out.Client != 42 || out.Resp.Status != StatusOK {
		t.Fatalf("client saw %+v", out)
	}

	// Broadcast from a node fans to nodes only.
	if err := node0.Broadcast(Frame{Kind: FrameHeartbeat}); err != nil {
		t.Fatal(err)
	}
	select {
	case f := <-client.Recv():
		t.Fatalf("broadcast reached client endpoint: %+v", f)
	case <-time.After(20 * time.Millisecond):
	}
}

func TestRingNetworkClientTopology(t *testing.T) {
	net := NewRingNetworkClients(3, 2, defaultRingBytes, 0)
	defer func() {
		for i := 0; i < net.Size(); i++ {
			net.Endpoint(ddp.NodeID(i)).Close()
		}
	}()
	node0, client := net.Endpoint(0), net.Endpoint(4)

	if got := node0.Peers(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("node peers = %v, want [1 2]", got)
	}
	if got := client.Peers(); len(got) != 3 {
		t.Fatalf("client peers = %v, want [0 1 2]", got)
	}

	req := Frame{Kind: FrameClientRequest, Client: 7, Req: ClientRequest{Op: OpClientWrite, Key: 5, Value: []byte("x")}}
	if err := client.Send(0, req); err != nil {
		t.Fatal(err)
	}
	in := <-node0.Recv()
	if in.From != 4 || in.Client != 7 || !bytes.Equal(in.Req.Value, []byte("x")) {
		t.Fatalf("node saw %+v", in)
	}
	if err := node0.Send(in.From, Frame{Kind: FrameClientResponse, Client: in.Client, Resp: ClientResponse{Op: OpClientWrite, Status: StatusOK}}); err != nil {
		t.Fatal(err)
	}
	out := <-client.Recv()
	if out.Client != 7 || out.Resp.Status != StatusOK {
		t.Fatalf("client saw %+v", out)
	}

	// Client endpoints have no client<->client rings.
	if err := client.Send(3, Frame{Kind: FrameHeartbeat}); err == nil {
		t.Fatal("client-to-client send accepted")
	}

	// Broadcast from a node fans to nodes only.
	if err := node0.Broadcast(Frame{Kind: FrameHeartbeat}); err != nil {
		t.Fatal(err)
	}
	select {
	case f := <-client.Recv():
		t.Fatalf("broadcast reached client endpoint: %+v", f)
	case <-time.After(20 * time.Millisecond):
	}
}

// TestTCPHelloReturnPath exercises the scale-harness TCP topology: a
// client endpoint dials a node it knows by address, announces its own
// ephemeral listen address with FrameHello, and the node can then Send
// responses back to an ID that was never in its static address map —
// without the client ever appearing in the node's protocol peer set.
func TestTCPHelloReturnPath(t *testing.T) {
	node, err := NewTCPTransport(0, map[ddp.NodeID]string{0: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	client, err := NewTCPTransport(5, map[ddp.NodeID]string{5: "127.0.0.1:0", 0: node.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if err := client.Announce(0); err != nil {
		t.Fatal(err)
	}
	if err := client.Send(0, Frame{Kind: FrameClientRequest, Client: 3, Req: ClientRequest{Op: OpClientRead, Key: 9}}); err != nil {
		t.Fatal(err)
	}
	// Per-link FIFO: the hello is consumed by the transport (never
	// delivered) and the request arrives after the return address is
	// learned.
	in := <-node.Recv()
	if in.Kind != FrameClientRequest || in.From != 5 || in.Client != 3 {
		t.Fatalf("node saw %+v", in)
	}
	if got := node.Peers(); len(got) != 0 {
		t.Fatalf("hello leaked into protocol peer set: %v", got)
	}
	if err := node.Send(5, Frame{Kind: FrameClientResponse, Client: 3, Resp: ClientResponse{Op: OpClientRead, Status: StatusOK, Value: []byte("ok")}}); err != nil {
		t.Fatal(err)
	}
	out := <-client.Recv()
	if out.From != 0 || out.Client != 3 || !bytes.Equal(out.Resp.Value, []byte("ok")) {
		t.Fatalf("client saw %+v", out)
	}
}
