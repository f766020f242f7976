package transport

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
)

func roundTrip(t *testing.T, f Frame) Frame {
	t.Helper()
	buf := EncodeFrame(f)
	// Strip the length prefix as the stream reader does.
	got, err := DecodeFrame(buf[4:])
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got
}

func TestCodecMessageRoundTrip(t *testing.T) {
	f := Frame{
		Kind: FrameMessage,
		From: 3,
		Msg: ddp.Message{
			Kind:  ddp.KindInv,
			From:  3,
			Key:   0xDEADBEEF,
			TS:    ddp.Timestamp{Node: 2, Version: 99},
			Scope: 7,
			Value: []byte("hello minos"),
		},
	}
	got := roundTrip(t, f)
	if got.Kind != f.Kind || got.From != f.From {
		t.Fatalf("frame header mismatch: %+v", got)
	}
	m := got.Msg
	if m.Kind != f.Msg.Kind || m.Key != f.Msg.Key || m.TS != f.Msg.TS ||
		m.Scope != f.Msg.Scope || !bytes.Equal(m.Value, f.Msg.Value) {
		t.Fatalf("message mismatch: got %+v want %+v", m, f.Msg)
	}
}

func TestCodecHeartbeatAndRecovery(t *testing.T) {
	hb := roundTrip(t, Frame{Kind: FrameHeartbeat, From: 1})
	if hb.Kind != FrameHeartbeat || hb.From != 1 {
		t.Fatalf("heartbeat mismatch: %+v", hb)
	}

	req := roundTrip(t, Frame{Kind: FrameRecoveryRequest, From: 4, Since: 12345})
	if req.Since != 12345 {
		t.Fatalf("recovery request mismatch: %+v", req)
	}

	ent := Frame{
		Kind: FrameRecoveryEntries,
		From: 0,
		Entries: []LogEntry{
			{Seq: 1, Key: 10, TS: ddp.Timestamp{Node: 0, Version: 1}, Value: []byte("a")},
			{Seq: 2, Key: 11, TS: ddp.Timestamp{Node: 1, Version: 2}, Value: nil, Scope: 9},
		},
	}
	got := roundTrip(t, ent)
	if len(got.Entries) != 2 {
		t.Fatalf("entries lost: %+v", got)
	}
	if got.Entries[0].Seq != 1 || !bytes.Equal(got.Entries[0].Value, []byte("a")) {
		t.Fatalf("entry 0 mismatch: %+v", got.Entries[0])
	}
	if got.Entries[1].Scope != 9 || got.Entries[1].Value != nil {
		t.Fatalf("entry 1 mismatch: %+v", got.Entries[1])
	}
}

// Property: the codec round-trips arbitrary protocol messages.
func TestPropertyCodecRoundTrip(t *testing.T) {
	f := func(kind uint8, from int8, key uint64, tsn int8, tsv int32, scope uint64, value []byte) bool {
		m := ddp.Message{
			Kind:  ddp.MsgKind(kind % 8),
			From:  ddp.NodeID(from),
			Key:   ddp.Key(key),
			TS:    ddp.Timestamp{Node: ddp.NodeID(tsn), Version: ddp.Version(tsv)},
			Scope: ddp.ScopeID(scope),
			Value: value,
		}
		buf := EncodeFrame(Frame{Kind: FrameMessage, From: m.From, Msg: m})
		got, err := DecodeFrame(buf[4:])
		if err != nil {
			return false
		}
		g := got.Msg
		if len(value) == 0 {
			// nil and empty are equivalent on the wire.
			return g.Kind == m.Kind && g.From == m.From && g.Key == m.Key &&
				g.TS == m.TS && g.Scope == m.Scope && len(g.Value) == 0
		}
		return g.Kind == m.Kind && g.From == m.From && g.Key == m.Key &&
			g.TS == m.TS && g.Scope == m.Scope && bytes.Equal(g.Value, m.Value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		{},                   // empty
		{99, 0, 0, 0, 0},     // unknown kind
		{0, 0, 0, 0, 0},      // message frame with no payload
		{0, 0, 0, 0, 0, 200}, // illegal message kind
	}
	for i, c := range cases {
		if _, err := DecodeFrame(c); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
	// Trailing bytes must be rejected.
	good := EncodeFrame(Frame{Kind: FrameHeartbeat, From: 1})
	if _, err := DecodeFrame(append(good[4:], 0xFF)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestMemNetworkDelivery(t *testing.T) {
	net := NewMemNetwork(3)
	a, b := net.Endpoint(0), net.Endpoint(1)
	if err := a.Send(1, Frame{Kind: FrameHeartbeat}); err != nil {
		t.Fatal(err)
	}
	f := <-b.Recv()
	if f.Kind != FrameHeartbeat || f.From != 0 {
		t.Fatalf("got %+v", f)
	}
	if got := a.Peers(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("peers = %v", got)
	}
	if err := a.Send(0, Frame{}); err == nil {
		t.Error("send-to-self accepted")
	}
	if err := a.Send(9, Frame{}); err == nil {
		t.Error("send to unknown peer accepted")
	}
}

func TestMemNetworkPartition(t *testing.T) {
	net := NewMemNetwork(2)
	a := net.Endpoint(0)
	net.Disconnect(1)
	if err := a.Send(1, Frame{Kind: FrameHeartbeat}); err != ErrDisconnected {
		t.Fatalf("send to partitioned peer: %v, want ErrDisconnected", err)
	}
	net.Reconnect(1)
	if err := a.Send(1, Frame{Kind: FrameHeartbeat}); err != nil {
		t.Fatalf("send after reconnect: %v", err)
	}
}

func TestMemNetworkClose(t *testing.T) {
	net := NewMemNetwork(2)
	a, b := net.Endpoint(0), net.Endpoint(1)
	b.Close()
	if err := a.Send(1, Frame{Kind: FrameHeartbeat}); err != ErrClosed {
		t.Fatalf("send to closed peer: %v, want ErrClosed", err)
	}
	if _, ok := <-b.Recv(); ok {
		t.Error("closed endpoint's channel should be closed")
	}
}

func TestTCPTransportRoundTrip(t *testing.T) {
	addrs := map[ddp.NodeID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"}
	t0, err := NewTCPTransport(0, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Close()
	// Node 1 must know node 0's real port (and vice versa).
	addrs1 := map[ddp.NodeID]string{0: t0.Addr(), 1: "127.0.0.1:0"}
	t1, err := NewTCPTransport(1, addrs1)
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	t0.addrs[1] = t1.Addr()

	want := Frame{
		Kind: FrameMessage,
		Msg: ddp.Message{
			Kind: ddp.KindInv, Key: 42,
			TS:    ddp.Timestamp{Node: 0, Version: 1},
			Value: bytes.Repeat([]byte{7}, 1024),
		},
	}
	if err := t0.Send(1, want); err != nil {
		t.Fatal(err)
	}
	got := <-t1.Recv()
	if got.From != 0 || got.Msg.Key != 42 || !bytes.Equal(got.Msg.Value, want.Msg.Value) {
		t.Fatalf("mismatch: %+v", got)
	}
	// And the reverse direction.
	if err := t1.Send(0, Frame{Kind: FrameHeartbeat}); err != nil {
		t.Fatal(err)
	}
	back := <-t0.Recv()
	if back.Kind != FrameHeartbeat || back.From != 1 {
		t.Fatalf("reverse mismatch: %+v", back)
	}
}

func TestTCPConcurrentSenders(t *testing.T) {
	t0, err := NewTCPTransport(0, map[ddp.NodeID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Close()
	t1, err := NewTCPTransport(1, map[ddp.NodeID]string{0: t0.Addr(), 1: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()

	const senders, per = 8, 50
	done := make(chan struct{})
	for g := 0; g < senders; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < per; i++ {
				_ = t1.Send(0, Frame{Kind: FrameMessage, Msg: ddp.Message{
					Kind: ddp.KindAck, Key: 1, TS: ddp.Timestamp{Node: 1, Version: 1},
				}})
			}
		}()
	}
	got := 0
	for got < senders*per {
		f, ok := <-t0.Recv()
		if !ok {
			t.Fatal("transport closed early")
		}
		if f.Msg.Kind != ddp.KindAck {
			t.Fatalf("frame corrupted by interleaving: %+v", f)
		}
		got++
	}
	for g := 0; g < senders; g++ {
		<-done
	}
}

func TestFrameKindsDistinct(t *testing.T) {
	kinds := []FrameKind{FrameMessage, FrameHeartbeat, FrameRecoveryRequest, FrameRecoveryEntries}
	seen := map[FrameKind]bool{}
	for _, k := range kinds {
		if seen[k] {
			t.Fatalf("duplicate frame kind %d", k)
		}
		seen[k] = true
	}
	if !reflect.DeepEqual(len(seen), 4) {
		t.Fatal("expected 4 distinct frame kinds")
	}
}

// TestSendDoesNotRetainValue pins the Send contract on every fabric:
// the caller may overwrite a frame's value bytes the moment Send
// returns, and the receiver still sees the bytes as they were sent.
// Fabrics that hold a frame past Send (mem's channel, chaos's delay
// pump) must keep their own copy.
func TestSendDoesNotRetainValue(t *testing.T) {
	fabrics := []struct {
		name string
		pair func(t *testing.T) (Transport, Transport)
	}{
		{"mem", func(t *testing.T) (Transport, Transport) {
			net := NewMemNetwork(2)
			return net.Endpoint(0), net.Endpoint(1)
		}},
		{"ring", func(t *testing.T) (Transport, Transport) {
			t0, t1 := ringPair(t)
			return t0, t1
		}},
		{"tcp", func(t *testing.T) (Transport, Transport) {
			t0, t1 := tcpPair(t)
			return t0, t1
		}},
		{"chaos-over-mem", func(t *testing.T) (Transport, Transport) {
			cn := NewChaosNetwork(2, time.Millisecond, 7)
			t.Cleanup(cn.Close)
			return cn.Endpoint(0), cn.Endpoint(1)
		}},
	}
	for _, fab := range fabrics {
		t.Run(fab.name, func(t *testing.T) {
			src, dst := fab.pair(t)
			buf := make([]byte, 16)
			frames := []func([]byte) Frame{
				func(v []byte) Frame {
					return Frame{Kind: FrameMessage, Msg: ddp.Message{Kind: ddp.KindInv, Key: 1, Value: v}}
				},
				func(v []byte) Frame {
					return Frame{Kind: FrameClientRequest, Req: ClientRequest{Op: OpClientWrite, Value: v}}
				},
				func(v []byte) Frame { return Frame{Kind: FrameClientResponse, Resp: ClientResponse{Value: v}} },
			}
			for i, mk := range frames {
				for j := range buf {
					buf[j] = byte('a' + i)
				}
				want := string(buf)
				if err := src.Send(dst.Self(), mk(buf)); err != nil {
					t.Fatal(err)
				}
				for j := range buf {
					buf[j] = 'X'
				}
				select {
				case f := <-dst.Recv():
					got := string(f.Msg.Value) + string(f.Req.Value) + string(f.Resp.Value)
					if got != want {
						t.Fatalf("frame %d: receiver saw %q, want %q (Send retained the caller's bytes)", i, got, want)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("frame %d never arrived", i)
				}
			}
		})
	}
}

func TestParseCluster(t *testing.T) {
	addrs, err := ParseCluster("0=host0:7100, 1=host1:7101,2=host2:7102")
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 3 || addrs[1] != "host1:7101" {
		t.Fatalf("parsed %v", addrs)
	}
	for _, bad := range []string{"", "x", "a=b=c=d", "q=host:1"} {
		if _, err := ParseCluster(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}
