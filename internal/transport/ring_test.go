package transport

import (
	"sync"
	"testing"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/obs"
)

// ringPair builds a 2-node ring network and cleans it up.
func ringPair(t *testing.T) (*RingTransport, *RingTransport) {
	t.Helper()
	net := NewRingNetwork(2)
	t0, t1 := net.Endpoint(0), net.Endpoint(1)
	t.Cleanup(func() {
		t0.Close()
		t1.Close()
	})
	return t0, t1
}

// TestRingPerPeerFIFO mirrors TestTCPPerPeerFIFO: per-peer FIFO is the
// delivery property the DDP protocol (and the persistorder analyzer's
// premise) depend on. Concurrent senders on one endpoint serialize on
// the producer mutex; each sender's own frames must arrive in its send
// order.
func TestRingPerPeerFIFO(t *testing.T) {
	t0, t1 := ringPair(t)

	const senders, per = 16, 300
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				f := Frame{Kind: FrameMessage, Msg: ddp.Message{
					Kind: ddp.KindInv,
					Key:  ddp.Key(s),
					TS:   ddp.Timestamp{Node: 1, Version: ddp.Version(i)},
				}}
				for {
					err := t1.Send(0, f)
					if err == nil {
						break
					}
					if err != ErrBackpressure {
						t.Errorf("send: %v", err)
						return
					}
					time.Sleep(100 * time.Microsecond)
				}
			}
		}()
	}

	last := make(map[ddp.Key]ddp.Version)
	got := 0
	deadline := time.After(30 * time.Second)
	for got < senders*per {
		select {
		case f, ok := <-t0.Recv():
			if !ok {
				t.Fatal("transport closed early")
			}
			key, v := f.Msg.Key, f.Msg.TS.Version
			if prev, seen := last[key]; seen && v <= prev {
				t.Fatalf("sender %d: version %d arrived after %d (FIFO violated)", key, v, prev)
			}
			last[key] = v
			got++
		case <-deadline:
			t.Fatalf("received %d of %d frames", got, senders*per)
		}
	}
	wg.Wait()

	st := obs.Collect(t1)
	if frames := st.Counter("transport.frames_sent"); frames != senders*per {
		t.Errorf("frames_sent = %d, want %d", frames, senders*per)
	}
	if recv := obs.Collect(t0).Counter("transport.frames_recv"); recv != senders*per {
		t.Errorf("frames_recv = %d, want %d", recv, senders*per)
	}
}

// TestRingBroadcastEncodesOnce mirrors TestBroadcastEncodesOnce: one
// encode regardless of fan-out, one ring memcpy per peer.
func TestRingBroadcastEncodesOnce(t *testing.T) {
	const n = 4
	net := NewRingNetwork(n)
	for i := 0; i < n; i++ {
		defer net.Endpoint(ddp.NodeID(i)).Close()
	}

	src := net.Endpoint(0)
	before := obs.Collect(src)
	want := Frame{Kind: FrameMessage, Msg: ddp.Message{
		Kind: ddp.KindInv, Key: 99, TS: ddp.Timestamp{Node: 0, Version: 1},
		Value: []byte("broadcast-once"),
	}}
	if err := src.Broadcast(want); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		select {
		case f := <-net.Endpoint(ddp.NodeID(i)).Recv():
			if f.From != 0 || f.Msg.Key != 99 || string(f.Msg.Value) != "broadcast-once" {
				t.Fatalf("peer %d got %+v", i, f)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("peer %d never received the broadcast", i)
		}
	}
	after := obs.Collect(src)
	if got := after.Counter("transport.encodes") - before.Counter("transport.encodes"); got != 1 {
		t.Errorf("broadcast performed %d encodes, want exactly 1", got)
	}
	if got := after.Counter("transport.broadcasts") - before.Counter("transport.broadcasts"); got != 1 {
		t.Errorf("broadcasts counter moved by %d, want 1", got)
	}
	if got := after.Counter("transport.frames_sent") - before.Counter("transport.frames_sent"); got != n-1 {
		t.Errorf("broadcast delivered %d frames, want %d", got, n-1)
	}
}

// TestRingPeersSorted: Peers() is ascending and excludes self.
func TestRingPeersSorted(t *testing.T) {
	net := NewRingNetwork(5)
	for i := 0; i < 5; i++ {
		defer net.Endpoint(ddp.NodeID(i)).Close()
	}
	got := net.Endpoint(2).Peers()
	want := []ddp.NodeID{0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("Peers() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Peers() = %v, want %v", got, want)
		}
	}
}

// TestRingBackpressure: a full ring with a stalled consumer must turn
// into a prompt ErrBackpressure, not an unbounded pile-up; draining the
// receiver restores sends.
func TestRingBackpressure(t *testing.T) {
	net := NewRingNetworkSize(2, 1024)
	t0, t1 := net.Endpoint(0), net.Endpoint(1)
	defer t0.Close()
	defer t1.Close()

	// A frame that can never fit errors immediately.
	huge := Frame{Kind: FrameMessage, Msg: ddp.Message{
		Kind: ddp.KindInv, Key: 1, TS: ddp.Timestamp{Node: 1, Version: 1},
		Value: make([]byte, 4096),
	}}
	if err := t1.Send(0, huge); err != ErrBackpressure {
		t.Fatalf("oversized frame: err = %v, want ErrBackpressure", err)
	}

	// Flood without draining t0: ring (≈3 frames at this value size) +
	// receive channel (4096) fill, then sends must error rather than
	// block forever. Cap attempts so a regression fails instead of
	// hanging.
	f := Frame{Kind: FrameMessage, Msg: ddp.Message{
		Kind: ddp.KindInv, Key: 2, TS: ddp.Timestamp{Node: 1, Version: 1},
		Value: make([]byte, 256),
	}}
	sawBackpressure := false
	sent := 0
	for i := 0; i < 3*4096+64; i++ {
		if err := t1.Send(0, f); err == ErrBackpressure {
			sawBackpressure = true
			break
		} else if err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		sent++
	}
	if !sawBackpressure {
		t.Fatalf("no backpressure after %d undrained sends into a 1KB ring", sent)
	}

	// Recovery is driven by receives, not by the clock. Backpressure can
	// fire after a handful of accepted sends (the ring holds ~3 frames,
	// the poller may not have run yet), so drain what was sent, up to a
	// chunk. After that each refused retry waits for one more frame to
	// come out; with all of them out the ring is empty and the send must
	// be accepted. The timeouts only turn a hang into a failure.
	recv := func() {
		t.Helper()
		select {
		case <-t0.Recv():
		case <-time.After(30 * time.Second):
			t.Fatal("an accepted frame never arrived")
		}
	}
	drained := 0
	for ; drained < sent && drained < 64; drained++ {
		recv()
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		err := t1.Send(0, f)
		if err == nil {
			return
		}
		if err != ErrBackpressure {
			t.Fatalf("send after draining %d of %d: %v", drained, sent, err)
		}
		if drained < sent {
			recv()
			drained++
		} else if time.Now().After(deadline) {
			// The poller frees a frame's ring bytes just after handing it
			// over, so the last receive can precede the space by a moment.
			t.Fatalf("sends never recovered with all %d frames drained", sent)
		}
	}
}

// TestChaosOverRing: the chaos wrapper composes over the ring transport
// with per-frame drop and delay decisions, preserving FIFO among
// survivors.
func TestChaosOverRing(t *testing.T) {
	t0, t1 := ringPair(t)
	const dropP = 0.4
	ch := NewChaos(t1, 500*time.Microsecond, dropP, 42)
	defer ch.Close()

	const total = 400
	for i := 0; i < total; i++ {
		if err := ch.Send(0, Frame{Kind: FrameMessage, Msg: ddp.Message{
			Kind: ddp.KindInv, Key: 7, TS: ddp.Timestamp{Node: 1, Version: ddp.Version(i)},
		}}); err != nil {
			t.Fatal(err)
		}
	}

	got := 0
	var lastV ddp.Version = -1
	timeout := time.After(10 * time.Second)
loop:
	for {
		select {
		case f := <-t0.Recv():
			if f.Msg.Key != 7 {
				t.Fatalf("corrupt frame: %+v", f)
			}
			if f.Msg.TS.Version <= lastV {
				t.Fatalf("FIFO violated under chaos: %d after %d", f.Msg.TS.Version, lastV)
			}
			lastV = f.Msg.TS.Version
			got++
		case <-time.After(700 * time.Millisecond):
			break loop
		case <-timeout:
			break loop
		}
	}
	if got == 0 {
		t.Fatal("chaos dropped everything")
	}
	if got == total {
		t.Fatalf("chaos dropped nothing out of %d frames (dropP=%v)", total, dropP)
	}
}

// TestRingInlineHandler: SetHandler switches delivery to a synchronous
// callback with the value borrowed from ring storage; handlers that
// copy what they keep observe every frame, in order, whether the
// endpoint's own poller or a PollInline caller drives the receive path.
func TestRingInlineHandler(t *testing.T) {
	t0, t1 := ringPair(t)

	var mu sync.Mutex
	var seen []ddp.Version
	var payloads []string
	t0.SetHandler(func(f Frame) {
		mu.Lock()
		seen = append(seen, f.Msg.TS.Version)
		payloads = append(payloads, string(f.Msg.Value)) // copy: value is borrowed
		mu.Unlock()
	})

	const total = 200
	for i := 0; i < total; i++ {
		f := Frame{Kind: FrameMessage, Msg: ddp.Message{
			Kind: ddp.KindInv, Key: 3, TS: ddp.Timestamp{Node: 1, Version: ddp.Version(i)},
			Value: []byte{byte(i), byte(i >> 8)},
		}}
		if err := t1.Send(0, f); err != nil {
			t.Fatal(err)
		}
		// Interleave inline polling with the background poller: both
		// contend on the poll token, at most one wins at a time.
		if i%3 == 0 {
			t0.PollInline(8)
		}
	}

	delivered := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(seen)
	}
	deadline := time.Now().Add(10 * time.Second)
	for delivered() != total {
		if time.Now().After(deadline) {
			t.Fatalf("handler saw %d of %d frames", delivered(), total)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, v := range seen {
		if v != ddp.Version(i) {
			t.Fatalf("frame %d: version %d (ordering violated)", i, v)
		}
		if want := string([]byte{byte(i), byte(i >> 8)}); payloads[i] != want {
			t.Fatalf("frame %d: payload %q, want %q (borrowed bytes corrupted)", i, payloads[i], want)
		}
	}
}

// TestRingWrapAround: frames crossing the ring's physical end are
// reassembled correctly — push enough traffic through a small ring that
// wrap happens many times, verifying payload integrity each time.
func TestRingWrapAround(t *testing.T) {
	net := NewRingNetworkSize(2, 512)
	t0, t1 := net.Endpoint(0), net.Endpoint(1)
	defer t0.Close()
	defer t1.Close()

	const total = 2000
	go func() {
		for i := 0; i < total; i++ {
			val := make([]byte, 1+i%97)
			for j := range val {
				val[j] = byte(i + j)
			}
			f := Frame{Kind: FrameMessage, Msg: ddp.Message{
				Kind: ddp.KindInv, Key: ddp.Key(i), TS: ddp.Timestamp{Node: 1, Version: ddp.Version(i)},
				Value: val,
			}}
			for {
				err := t1.Send(0, f)
				if err == nil {
					break
				}
				if err != ErrBackpressure {
					return
				}
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()

	deadline := time.After(30 * time.Second)
	for i := 0; i < total; i++ {
		select {
		case f := <-t0.Recv():
			if f.Msg.Key != ddp.Key(i) {
				t.Fatalf("frame %d: key %d", i, f.Msg.Key)
			}
			want := 1 + i%97
			if len(f.Msg.Value) != want {
				t.Fatalf("frame %d: %d value bytes, want %d", i, len(f.Msg.Value), want)
			}
			for j, b := range f.Msg.Value {
				if b != byte(i+j) {
					t.Fatalf("frame %d byte %d corrupted: %d != %d", i, j, b, byte(i+j))
				}
			}
		case <-deadline:
			t.Fatalf("stalled at frame %d", i)
		}
	}
}
