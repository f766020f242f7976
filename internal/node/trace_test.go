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

// tracedChaosCluster runs concurrent writers for one model over a
// chaos fabric with every node fully traced, and returns the spans
// recorded per node after the cluster quiesces.
func tracedChaosCluster(t *testing.T, model ddp.Model) [][]obs.Span {
	t.Helper()
	chaos := transport.NewChaosNetwork(3, time.Millisecond, int64(model)*31+7)
	defer chaos.Close()
	nodes := make([]*Node, 3)
	tracers := make([]*obs.Tracer, 3)
	for i := range nodes {
		tracers[i] = obs.NewTracer(0)
		nodes[i] = New(Config{Model: model, Tracer: tracers[i]}, chaos.Endpoint(ddp.NodeID(i)))
		nodes[i].Start()
	}

	var wg sync.WaitGroup
	for _, nd := range nodes {
		for w := 0; w < 2; w++ {
			nd, w := nd, w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 15; i++ {
					key := ddp.Key((w*15 + i) % 4)
					if err := nd.Write(key, []byte(fmt.Sprintf("t-%d-%d", w, i))); err != nil {
						t.Errorf("write: %v", err)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	// Close waits out the drain workers and every in-flight handler, so
	// no span is recorded while we read. It drops persists still queued
	// (a follower whose ack never went out records no spans), but a
	// follower's span pair is recorded inside one ack hook, so every pair
	// read below is complete.
	for _, nd := range nodes {
		nd.Close()
	}
	out := make([][]obs.Span, len(tracers))
	for i, tr := range tracers {
		out[i] = tr.Spans()
		if tr.Dropped() != 0 {
			t.Fatalf("node %d ring dropped %d spans; grow the test ring", i, tr.Dropped())
		}
	}
	return out
}

// TestTraceOrderingUnderChaos pins the two structural invariants of
// the trace format under message-level chaos:
//
//  1. A transaction's coordinator spans never interleave: sorted by
//     start, each span ends no later than the next begins (the
//     chained-timestamp construction), opening with issue and closing
//     with completion.
//  2. A follower's persist (group_commit) span closes before its
//     acknowledgment (val) span opens — the traced image of the
//     persist-before-ack rule (Fig 2 L39-40).
func TestTraceOrderingUnderChaos(t *testing.T) {
	for _, model := range []ddp.Model{ddp.LinSynch, ddp.LinREnf, ddp.LinEvent} {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			t.Parallel()
			perNode := tracedChaosCluster(t, model)
			sawTxn, sawFollower := false, false
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
					sawTxn = true
					sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
					for i, s := range ss {
						if s.End < s.Start {
							t.Fatalf("node %d txn %d: span %v ends before it starts", ni, txn, s)
						}
						if i > 0 && s.Start < ss[i-1].End {
							t.Fatalf("node %d txn %d: %v (start %d) interleaves with %v (end %d)",
								ni, txn, s.Phase, s.Start, ss[i-1].Phase, ss[i-1].End)
						}
					}
					if ss[0].Phase != obs.PhaseIssue {
						t.Fatalf("node %d txn %d opens with %v, want issue", ni, txn, ss[0].Phase)
					}
					if last := ss[len(ss)-1].Phase; last != obs.PhaseCompletion {
						t.Fatalf("node %d txn %d closes with %v, want completion", ni, txn, last)
					}
				}
				for fk, ss := range followers {
					var persist, ack *obs.Span
					for i := range ss {
						switch ss[i].Phase {
						case obs.PhaseGroupCommit:
							persist = &ss[i]
						case obs.PhaseVal:
							ack = &ss[i]
						default:
							t.Fatalf("node %d follower (key %d, ver %d): unexpected phase %v",
								ni, fk.key, fk.ver, ss[i].Phase)
						}
					}
					if persist == nil || ack == nil {
						t.Fatalf("node %d follower (key %d, ver %d): incomplete pair %v",
							ni, fk.key, fk.ver, ss)
					}
					sawFollower = true
					if ack.Start < persist.End {
						t.Fatalf("node %d follower (key %d, ver %d): ack at %d outran persist ending %d",
							ni, fk.key, fk.ver, ack.Start, persist.End)
					}
				}
			}
			if !sawTxn {
				t.Fatal("no coordinator transactions traced")
			}
			if ddp.PolicyFor(model).TracksPersistency && !sawFollower {
				t.Fatal("no follower persist/ack span pairs traced")
			}
		})
	}
}

// TestTracerSampling: at a 1-in-4 rate only every fourth transaction
// opens a trace, and the untraced ones record nothing.
func TestTracerSampling(t *testing.T) {
	net := transport.NewMemNetwork(2)
	tr := obs.NewTracer(0)
	tr.SetSampleEvery(4)
	nodes := []*Node{
		New(Config{Model: ddp.LinEvent, Tracer: tr}, net.Endpoint(0)),
		New(Config{Model: ddp.LinEvent}, net.Endpoint(1)),
	}
	for _, nd := range nodes {
		nd.Start()
	}
	defer func() {
		for _, nd := range nodes {
			nd.Close()
		}
	}()
	for i := 0; i < 16; i++ {
		if err := nodes[0].Write(ddp.Key(i), []byte("s")); err != nil {
			t.Fatal(err)
		}
	}
	txns := map[uint64]struct{}{}
	for _, s := range tr.Spans() {
		if s.Role != obs.RoleCoordinator {
			continue
		}
		txns[s.Txn] = struct{}{}
		if s.Txn%4 != 0 {
			t.Fatalf("unsampled txn %d recorded a span", s.Txn)
		}
	}
	if len(txns) != 4 {
		t.Fatalf("traced %d of 16 transactions at 1-in-4, want 4", len(txns))
	}
}
