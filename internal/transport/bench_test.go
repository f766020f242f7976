package transport

import (
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/obs"
)

func benchFrame(payload int) Frame {
	return Frame{Kind: FrameMessage, Msg: ddp.Message{
		Kind:  ddp.KindInv,
		Key:   42,
		TS:    ddp.Timestamp{Node: 1, Version: 7},
		Scope: 3,
		Value: make([]byte, payload),
	}}
}

// BenchmarkEncodeFrame measures the append-style encode path into a
// reused buffer: the steady state of a peer writer coalescing frames.
// Target: 0 allocs/op.
func BenchmarkEncodeFrame(b *testing.B) {
	f := benchFrame(64)
	buf := AppendFrame(nil, f)
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendFrame(buf[:0], f)
	}
}

// discardSink accepts connections and throws the bytes away. It stands
// in for a peer when the benchmark wants to isolate the encode+send path
// from receive-side decoding (which allocates per-frame Value copies by
// design).
func discardSink(b *testing.B) string {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, _ = io.Copy(io.Discard, c)
				c.Close()
			}()
		}
	}()
	b.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	return ln.Addr().String()
}

// benchTransport builds a TCP transport whose peers all point at
// discard sinks.
func benchTransport(b *testing.B, peers int) *TCPTransport {
	b.Helper()
	addrs := map[ddp.NodeID]string{0: "127.0.0.1:0"}
	for i := 1; i <= peers; i++ {
		addrs[ddp.NodeID(i)] = discardSink(b)
	}
	tr, err := NewTCPTransport(0, addrs)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { tr.Close() })
	return tr
}

// sendRetry absorbs transient backpressure: the benchmark drives the
// queue harder than the sink drains, which is exactly the saturated
// regime being measured.
func sendRetry(b *testing.B, tr *TCPTransport, to ddp.NodeID, f Frame) {
	for {
		err := tr.Send(to, f)
		if err == nil {
			return
		}
		if err != ErrBackpressure {
			b.Fatal(err)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// BenchmarkTCPSend measures the full enqueue→coalesce→Write pipeline.
//
//   - "single": one sender, encode+enqueue+flush of 64-byte-payload
//     frames to a discard sink. Target: 0 allocs/op steady state.
//   - "saturated": many concurrent senders into one peer queue — the
//     contended path the per-peer writer is built for.
//   - "broadcast": one-encode fan-out to 4 peers, links found through
//     the peer snapshot. 1 alloc/op: the shared encode buffer's slice
//     header on its way back to the pool.
func BenchmarkTCPSend(b *testing.B) {
	b.Run("single", func(b *testing.B) {
		tr := benchTransport(b, 1)
		f := benchFrame(64)
		sendRetry(b, tr, 1, f) // prime the connection outside the timer
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sendRetry(b, tr, 1, f)
		}
		b.StopTimer()
	})
	b.Run("saturated", func(b *testing.B) {
		tr := benchTransport(b, 1)
		f := benchFrame(64)
		sendRetry(b, tr, 1, f)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				sendRetry(b, tr, 1, f)
			}
		})
		b.StopTimer()
		st := obs.Collect(tr)
		b.ReportMetric(st.Ratio("transport.frames_sent", "transport.batches_sent"), "frames/batch")
	})
	b.Run("broadcast", func(b *testing.B) {
		const peers = 4
		tr := benchTransport(b, peers)
		f := benchFrame(64)
		for i := 1; i <= peers; i++ {
			sendRetry(b, tr, ddp.NodeID(i), f)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for {
				err := tr.Broadcast(f)
				if err == nil {
					break
				}
				// Broadcast wraps per-peer errors with peer context.
				if !errors.Is(err, ErrBackpressure) {
					b.Fatal(err)
				}
				time.Sleep(50 * time.Microsecond)
			}
		}
		b.StopTimer()
		// ≈1.0 when every Broadcast encoded exactly once (a handful of
		// priming Sends add noise in the numerator).
		st := obs.Collect(tr)
		b.ReportMetric(st.Ratio("transport.encodes", "transport.broadcasts"), "encodes/broadcast")
	})
}
