package node

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/transport"
)

// Write-path benchmarks across the five persistency models, with the
// NVM latency both disabled and at the paper's 1295 ns device write.
// The parallel variants are where group commit shows: concurrent
// writes coalesce into shared drain batches, so the per-write share of
// the persist delay shrinks with the offered load.

var benchDelays = []time.Duration{0, 1295 * time.Nanosecond}

func benchCluster(b *testing.B, model ddp.Model, delay time.Duration) *Node {
	b.Helper()
	net := transport.NewMemNetwork(3)
	nodes := make([]*Node, 3)
	for i := range nodes {
		nodes[i] = New(Config{Model: model, PersistDelay: delay}, net.Endpoint(ddp.NodeID(i)))
		nodes[i].Start()
	}
	b.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
	})
	return nodes[0]
}

// scopeFlushEvery batches <Lin, Scope> writes per flush, mirroring the
// paper's multi-write persistency epochs.
const scopeFlushEvery = 16

func BenchmarkNodeWrite(b *testing.B) {
	val := bytes.Repeat([]byte("v"), 128)
	for _, model := range ddp.Models {
		for _, d := range benchDelays {
			b.Run(fmt.Sprintf("%v/delay=%v", model, d), func(b *testing.B) {
				n := benchCluster(b, model, d)
				b.ResetTimer()
				if model == ddp.LinScope {
					s := n.Session()
					inScope := 0
					for i := 0; i < b.N; i++ {
						if err := s.Write(ddp.Key(i&255), val); err != nil {
							b.Fatal(err)
						}
						if inScope++; inScope == scopeFlushEvery {
							if err := s.Persist(); err != nil {
								b.Fatal(err)
							}
							inScope = 0
						}
					}
					if inScope > 0 {
						if err := s.Persist(); err != nil {
							b.Fatal(err)
						}
					}
					return
				}
				for i := 0; i < b.N; i++ {
					if err := n.Write(ddp.Key(i&255), val); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// Read-path benchmarks: reads are always local (§III-D), so one model
// suffices. BenchmarkNodeRead measures the copying API (one alloc for
// the returned value); BenchmarkNodeReadInto the seqlock fast path
// with a recycled caller buffer (0 allocs).
func BenchmarkNodeRead(b *testing.B) {
	val := bytes.Repeat([]byte("r"), 128)
	n := benchCluster(b, ddp.LinSynch, 0)
	for i := 0; i < 256; i++ {
		if err := n.Write(ddp.Key(i), val); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Read(ddp.Key(i & 255)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNodeReadInto(b *testing.B) {
	val := bytes.Repeat([]byte("r"), 128)
	n := benchCluster(b, ddp.LinSynch, 0)
	for i := 0; i < 256; i++ {
		if err := n.Write(ddp.Key(i), val); err != nil {
			b.Fatal(err)
		}
	}
	buf := make([]byte, 0, len(val))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := n.ReadInto(ddp.Key(i&255), buf)
		if err != nil {
			b.Fatal(err)
		}
		buf = v[:0]
	}
}

func BenchmarkNodeWriteParallel(b *testing.B) {
	val := bytes.Repeat([]byte("v"), 128)
	for _, model := range ddp.Models {
		for _, d := range benchDelays {
			b.Run(fmt.Sprintf("%v/delay=%v", model, d), func(b *testing.B) {
				n := benchCluster(b, model, d)
				var ctr atomic.Uint64
				b.SetParallelism(8)
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					if model == ddp.LinScope {
						s := n.Session()
						inScope := 0
						for pb.Next() {
							i := ctr.Add(1)
							if err := s.Write(ddp.Key(i&1023), val); err != nil {
								b.Fatal(err)
							}
							if inScope++; inScope == scopeFlushEvery {
								if err := s.Persist(); err != nil {
									b.Fatal(err)
								}
								inScope = 0
							}
						}
						if inScope > 0 {
							if err := s.Persist(); err != nil {
								b.Fatal(err)
							}
						}
						return
					}
					for pb.Next() {
						i := ctr.Add(1)
						if err := n.Write(ddp.Key(i&1023), val); err != nil {
							b.Fatal(err)
						}
					}
				})
			})
		}
	}
}
