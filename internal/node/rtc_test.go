package node

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/obs"
	"github.com/minos-ddp/minos/internal/transport"
)

// This file pins the protocol's behaviour across the delivery shapes a
// node runs over — same linearizability verdicts, same trace-span
// structure. Every fabric feeds the same handleFrame; what differs is
// who calls it and who owns the frame's bytes:
//
//   - mem:  recvLoop drains a channel of queued, sender-owned frames;
//   - ring: whichever goroutine holds the poll token (the endpoint's
//     poller or a coordinator spinning in its ack wait) delivers frames
//     that borrow ring storage;
//   - tcp:  recvLoop again, behind the batched loopback wire path.
var fabrics = []string{"mem", "ring", "tcp"}

// newFabricCluster builds and starts an n-node cluster over the named
// fabric; mutate (optional) adjusts node i's config. Closing the nodes
// closes their endpoints.
func newFabricCluster(t *testing.T, fabric string, n int, model ddp.Model, mutate func(i int, cfg *Config)) []*Node {
	t.Helper()
	eps, _ := newFabric(t, fabric, n, false)
	nodes := make([]*Node, n)
	for i := range nodes {
		cfg := Config{Model: model}
		if mutate != nil {
			mutate(i, &cfg)
		}
		nodes[i] = New(cfg, eps[i])
		nodes[i].Start()
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
	})
	return nodes
}

// newFabric builds the endpoints of n nodes over the named fabric and,
// if withClient is set, one client endpoint (ID n) that reaches every
// node; the caller closes them.
func newFabric(t *testing.T, fabric string, n int, withClient bool) ([]transport.Transport, transport.Transport) {
	t.Helper()
	clients := 0
	if withClient {
		clients = 1
	}
	eps := make([]transport.Transport, n)
	var client transport.Transport
	switch fabric {
	case "mem":
		net := transport.NewMemNetworkClients(n, clients)
		for i := range eps {
			eps[i] = net.Endpoint(ddp.NodeID(i))
		}
		if withClient {
			client = net.Endpoint(ddp.NodeID(n))
		}
	case "ring":
		net := transport.NewRingNetworkWithClients(n, clients)
		for i := range eps {
			eps[i] = net.Endpoint(ddp.NodeID(i))
		}
		if withClient {
			client = net.Endpoint(ddp.NodeID(n))
		}
	case "tcp":
		// Start every listener on an ephemeral port first, then exchange
		// the real addresses.
		trs := make([]*transport.TCPTransport, n)
		addrs := map[ddp.NodeID]string{ddp.NodeID(n): "127.0.0.1:0"}
		for i := range trs {
			tr, err := transport.NewTCPTransport(ddp.NodeID(i),
				map[ddp.NodeID]string{ddp.NodeID(i): "127.0.0.1:0"})
			if err != nil {
				t.Fatal(err)
			}
			trs[i], eps[i] = tr, tr
			addrs[ddp.NodeID(i)] = tr.Addr()
		}
		for i := range trs {
			for j := range trs {
				if i != j {
					trs[i].SetPeerAddr(ddp.NodeID(j), trs[j].Addr())
				}
			}
		}
		if withClient {
			ct, err := transport.NewTCPTransport(ddp.NodeID(n), addrs)
			if err != nil {
				t.Fatal(err)
			}
			client = ct
			for i := range trs {
				if err := ct.Announce(ddp.NodeID(i)); err != nil {
					t.Fatal(err)
				}
			}
		}
	default:
		t.Fatalf("unknown fabric %q", fabric)
	}
	return eps, client
}

// TestRingClusterReplicates smoke-tests every model over the ring
// fabric: a write from one node converges everywhere.
func TestRingClusterReplicates(t *testing.T) {
	for _, model := range ddp.Models {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			t.Parallel()
			nodes := newFabricCluster(t, "ring", 3, model, nil)
			if err := nodes[1].Write(9, []byte("ring-v")); err != nil {
				t.Fatal(err)
			}
			waitConverged(t, nodes, 9, []byte("ring-v"))
		})
	}
}

// TestRTCLinearizableEquivalence runs the same concurrent read/write
// shape as TestLiveClusterIsLinearizable over every fabric, with the
// soft-NIC engine off and on, and requires a legal linearization from
// each. Where a frame is delivered — and whether its key is host- or
// NIC-owned — must not reorder the protocol's visible history.
func TestRTCLinearizableEquivalence(t *testing.T) {
	for _, model := range ddp.Models {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			t.Parallel()
			for _, fabric := range fabrics {
				for _, off := range []bool{false, true} {
					shape := fabric
					if off {
						shape += "+offload"
					}
					for round := 0; round < 3; round++ {
						nodes := newFabricCluster(t, fabric, 3, model, func(_ int, cfg *Config) {
							if off {
								cfg.Offload = offloadTestConfig()
							}
						})
						var mu sync.Mutex
						var hist []histOp
						record := func(op histOp) {
							mu.Lock()
							hist = append(hist, op)
							mu.Unlock()
						}
						var wg sync.WaitGroup
						for _, nd := range nodes {
							nd := nd
							wg.Add(1)
							go func() {
								defer wg.Done()
								for i := 0; i < 2; i++ {
									v := fmt.Sprintf("%s-n%d-%d-%d", shape, nd.ID(), round, i)
									start := time.Now()
									if err := nd.Write(1, []byte(v)); err != nil {
										t.Errorf("write: %v", err)
										return
									}
									record(histOp{isWrite: true, value: v, start: start, end: time.Now()})
								}
							}()
						}
						for _, nd := range nodes {
							nd := nd
							wg.Add(1)
							go func() {
								defer wg.Done()
								// Alternate the copying Read and the zero-alloc
								// ReadInto (with a recycled buffer) so both read
								// entry points feed the linearizability check.
								buf := make([]byte, 0, 64)
								for i := 0; i < 3; i++ {
									start := time.Now()
									var v []byte
									var err error
									if i%2 == 0 {
										v, err = nd.Read(1)
									} else {
										v, err = nd.ReadInto(1, buf[:0])
									}
									if err != nil {
										t.Errorf("read: %v", err)
										return
									}
									record(histOp{isWrite: false, value: string(v), start: start, end: time.Now()})
									if i%2 != 0 && v != nil {
										buf = v
									}
									time.Sleep(time.Duration(i) * 200 * time.Microsecond)
								}
							}()
						}
						wg.Wait()
						if !linearizable(hist) {
							for _, op := range hist {
								kind := "R"
								if op.isWrite {
									kind = "W"
								}
								t.Logf("%s(%q) [%d, %d]ns", kind, op.value,
									op.start.UnixNano(), op.end.UnixNano())
							}
							t.Fatalf("%s round %d: no legal linearization of %d ops",
								shape, round, len(hist))
						}
						for _, nd := range nodes {
							nd.Close()
						}
					}
				}
			}
		})
	}
}

// fabricTraceRun drives a fixed serial write sequence from node 0 over
// a fully-traced cluster on the named fabric and returns per-node spans
// after Close has flushed the pipelines.
func fabricTraceRun(t *testing.T, model ddp.Model, fabric string) [][]obs.Span {
	t.Helper()
	tracers := make([]*obs.Tracer, 3)
	for i := range tracers {
		tracers[i] = obs.NewTracer(0)
	}
	nodes := newFabricCluster(t, fabric, 3, model, func(i int, cfg *Config) {
		cfg.Tracer = tracers[i]
	})
	for i := 0; i < 12; i++ {
		if err := nodes[0].Write(ddp.Key(i%3), []byte(fmt.Sprintf("rt-%d", i))); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	for _, nd := range nodes {
		nd.Close()
	}
	out := make([][]obs.Span, len(tracers))
	for i, tr := range tracers {
		out[i] = tr.Spans()
		if tr.Dropped() != 0 {
			t.Fatalf("node %d dropped %d spans", i, tr.Dropped())
		}
	}
	return out
}

// coordPhaseSeqs extracts each coordinator transaction's phase sequence
// (ordered by span start) and asserts the spans chain without
// interleaving; follower persist spans must close before the paired ack
// span opens — the traced image of persist-before-ack.
func coordPhaseSeqs(t *testing.T, perNode [][]obs.Span) []string {
	t.Helper()
	var seqs []string
	for ni, spans := range perNode {
		byTxn := map[uint64][]obs.Span{}
		type fkey struct {
			key uint64
			ver int64
		}
		followers := map[fkey][]obs.Span{}
		for _, s := range spans {
			if s.Role == obs.RoleCoordinator {
				byTxn[s.Txn] = append(byTxn[s.Txn], s)
			} else {
				followers[fkey{s.Key, s.Ver}] = append(followers[fkey{s.Key, s.Ver}], s)
			}
		}
		for txn, ss := range byTxn {
			sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
			seq := ""
			for i, s := range ss {
				if i > 0 && s.Start < ss[i-1].End {
					t.Fatalf("node %d txn %d: %v interleaves with %v",
						ni, txn, s.Phase, ss[i-1].Phase)
				}
				seq += s.Phase.String() + ">"
			}
			seqs = append(seqs, seq)
		}
		for fk, ss := range followers {
			var persist, ack *obs.Span
			for i := range ss {
				switch ss[i].Phase {
				case obs.PhaseGroupCommit:
					persist = &ss[i]
				case obs.PhaseVal:
					ack = &ss[i]
				}
			}
			if persist != nil && ack != nil && ack.Start < persist.End {
				t.Fatalf("node %d follower (key %d, ver %d): ack at %d outran persist ending %d",
					ni, fk.key, fk.ver, ack.Start, persist.End)
			}
		}
	}
	sort.Strings(seqs)
	return seqs
}

// TestRTCTraceEquivalence: every fabric must record the same
// coordinator phase structure for the same serial write sequence —
// identical multisets of per-transaction phase sequences — and each
// must satisfy the persist-before-ack span ordering. Where delivery
// runs may change timings, never the protocol's traced shape.
func TestRTCTraceEquivalence(t *testing.T) {
	for _, model := range []ddp.Model{ddp.LinSynch, ddp.LinStrict, ddp.LinEvent} {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			t.Parallel()
			want := coordPhaseSeqs(t, fabricTraceRun(t, model, fabrics[0]))
			if len(want) == 0 {
				t.Fatal("no coordinator transactions traced")
			}
			for _, fabric := range fabrics[1:] {
				got := coordPhaseSeqs(t, fabricTraceRun(t, model, fabric))
				if len(got) != len(want) {
					t.Fatalf("traced %d txns over %s, %d over %s", len(want), fabrics[0], len(got), fabric)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("phase sequence diverges:\n  %s: %s\n  %s: %s",
							fabrics[0], want[i], fabric, got[i])
					}
				}
			}
		})
	}
}
