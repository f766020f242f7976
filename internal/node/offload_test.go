package node

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/obs"
	"github.com/minos-ddp/minos/internal/offload"
	"github.com/minos-ddp/minos/internal/transport"
)

// offloadTestConfig is an aggressive engine tuning for tests: every key
// qualifies on first touch, and manual epochs (no ticker) keep the
// threshold trajectory deterministic.
func offloadTestConfig() *offload.Config {
	return &offload.Config{
		InitialThreshold:      1,
		MinThreshold:          1,
		MaxPromotionsPerEpoch: 1 << 20,
		Epoch:                 -1,
	}
}

// TestOffloadableGate pins which messages may cross to the NIC pool:
// key-carrying protocol messages yes; scope-control broadcasts, scope
// flush requests, and coalesced VAL batches no.
func TestOffloadableGate(t *testing.T) {
	ts := ddp.Timestamp{Node: 1, Version: 3}
	cases := []struct {
		m    ddp.Message
		want bool
	}{
		{ddp.Message{Kind: ddp.KindInv, TS: ts}, true},
		{ddp.Message{Kind: ddp.KindAck, TS: ts}, true},
		{ddp.Message{Kind: ddp.KindAckC, TS: ts}, true},
		{ddp.Message{Kind: ddp.KindVal, TS: ts}, true},
		{ddp.Message{Kind: ddp.KindValC, TS: ts}, true},
		{ddp.Message{Kind: ddp.KindAckP, TS: ts, Scope: 5}, true},
		{ddp.Message{Kind: ddp.KindValP, TS: ts, Scope: 5}, true},
		{ddp.Message{Kind: ddp.KindAckP, Scope: 5}, false}, // [ACK_P]sc scope control
		{ddp.Message{Kind: ddp.KindValP, Scope: 5}, false}, // [VAL_P]sc scope control
		{ddp.Message{Kind: ddp.KindPersist, Scope: 5}, false},
		{ddp.Message{Kind: ddp.KindValBatch}, false},
	}
	for i, c := range cases {
		if got := offloadable(c.m); got != c.want {
			t.Errorf("case %d: offloadable(%v scope=%d ts=%v) = %v, want %v",
				i, c.m.Kind, c.m.Scope, c.m.TS, got, c.want)
		}
	}
}

// TestOffloadClusterReplicates smoke-tests every model with the engine
// enabled: a hot key's writes converge on all nodes, and the NIC pool
// actually carried protocol traffic for it.
func TestOffloadClusterReplicates(t *testing.T) {
	for _, model := range ddp.Models {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			t.Parallel()
			nodes, _ := newCluster(t, 3, model, func(cfg *Config) {
				cfg.Offload = offloadTestConfig()
			})
			var want []byte
			for i := 0; i < 20; i++ {
				want = []byte(fmt.Sprintf("off-%d", i))
				if err := nodes[0].Write(5, want); err != nil {
					t.Fatalf("write %d: %v", i, err)
				}
			}
			waitConverged(t, nodes, 5, want)
			var nic int64
			for _, nd := range nodes {
				if nd.Offload() == nil {
					t.Fatal("offload engine missing")
				}
				nic += nd.Offload().NICFrames()
			}
			if nic == 0 {
				t.Fatal("no protocol message rode the NIC pool")
			}
		})
	}
}

// TestOffloadClusterLinearizable is TestLiveClusterIsLinearizable with
// the soft-NIC engine splicing the delivery path: same concurrent
// unique-valued writes and reads on one (hot, hence offloaded) key,
// same requirement that a legal linearization exists — MINOS-O must be
// observationally equivalent to MINOS-B. The models whose followers
// persist before acking (Synch, Strict) run one more round with a
// persist delay, so NIC-core persists go through the queued pipeline.
func TestOffloadClusterLinearizable(t *testing.T) {
	for _, model := range ddp.Models {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			t.Parallel()
			delays := []time.Duration{0, 0, 0}
			if model == ddp.LinSynch || model == ddp.LinStrict {
				delays = append(delays, 20*time.Microsecond)
			}
			for round, delay := range delays {
				nodes, _ := newCluster(t, 3, model, func(cfg *Config) {
					cfg.Offload = offloadTestConfig()
					cfg.PersistDelay = delay
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
							v := fmt.Sprintf("o%d-%d-%d", nd.ID(), round, i)
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
						for i := 0; i < 3; i++ {
							start := time.Now()
							v, err := nd.Read(1)
							if err != nil {
								t.Errorf("read: %v", err)
								return
							}
							record(histOp{isWrite: false, value: string(v), start: start, end: time.Now()})
							time.Sleep(time.Duration(i) * 200 * time.Microsecond)
						}
					}()
				}
				wg.Wait()
				if !linearizable(hist) {
					t.Fatalf("round %d: no legal linearization of %d ops with offload on",
						round, len(hist))
				}
			}
		})
	}
}

// TestOffloadRTCLinearizable runs the offloaded cluster over the ring
// fabric (poll-token delivery): linearizability must survive the
// borrowed-frame admission path too.
func TestOffloadRTCLinearizable(t *testing.T) {
	for _, model := range []ddp.Model{ddp.LinSynch, ddp.LinStrict} {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			t.Parallel()
			nodes := newFabricCluster(t, "ring", 3, model, func(_ int, cfg *Config) {
				cfg.Offload = offloadTestConfig()
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
					for i := 0; i < 3; i++ {
						v := fmt.Sprintf("rtc%d-%d", nd.ID(), i)
						start := time.Now()
						if err := nd.Write(2, []byte(v)); err != nil {
							t.Errorf("write: %v", err)
							return
						}
						record(histOp{isWrite: true, value: v, start: start, end: time.Now()})
						vr, err := nd.Read(2)
						if err != nil {
							t.Errorf("read: %v", err)
							return
						}
						record(histOp{isWrite: false, value: string(vr), start: start, end: time.Now()})
					}
				}()
			}
			wg.Wait()
			if !linearizable(hist) {
				t.Fatalf("no legal linearization of %d ops with offload over rings", len(hist))
			}
		})
	}
}

// TestOffloadTracePhases: with tracing on, NIC-handled messages record
// the nic_queue and nic_handle phases, and every matched pair abuts
// (the queue span ends where the handling span starts) — the Fig 2
// B-vs-O breakdown minos-trace renders.
func TestOffloadTracePhases(t *testing.T) {
	net := transport.NewMemNetwork(3)
	nodes := make([]*Node, 3)
	tracers := make([]*obs.Tracer, 3)
	for i := range nodes {
		tracers[i] = obs.NewTracer(1 << 16)
		tracers[i].SetSampleEvery(1)
		nodes[i] = New(Config{
			Model: ddp.LinSynch, Tracer: tracers[i], Offload: offloadTestConfig(),
		}, net.Endpoint(ddp.NodeID(i)))
		nodes[i].Start()
	}
	for i := 0; i < 30; i++ {
		if err := nodes[0].Write(1, []byte(fmt.Sprintf("tr-%d", i))); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for _, nd := range nodes {
		nd.Close()
	}
	type pkey struct {
		node int
		key  uint64
		ver  int64
	}
	queues := map[pkey]obs.Span{}
	handles := map[pkey]obs.Span{}
	for i, tr := range tracers {
		for _, s := range tr.Spans() {
			k := pkey{i, s.Key, s.Ver}
			switch s.Phase {
			case obs.PhaseNICQueue:
				queues[k] = s
			case obs.PhaseNICHandle:
				handles[k] = s
			}
		}
	}
	if len(handles) == 0 {
		t.Fatal("no nic_handle span recorded: the NIC pool never handled a traced message")
	}
	matched := 0
	for k, h := range handles {
		q, ok := queues[k]
		if !ok {
			t.Fatalf("nic_handle for %+v has no nic_queue span", k)
		}
		if q.End > h.Start {
			t.Fatalf("%+v: nic_queue ends at %d after nic_handle starts at %d", k, q.End, h.Start)
		}
		if q.Start > q.End {
			t.Fatalf("%+v: nic_queue span runs backwards (%d > %d)", k, q.Start, q.End)
		}
		matched++
	}
	t.Logf("matched %d nic_queue/nic_handle pairs", matched)
}

// TestOffloadOverflowDemotesEndToEnd drives a follower with a one-deep
// vFIFO through the full promote → overflow → demote → host cycle over
// a raw endpoint, with strictly ascending same-key INVs. The
// acknowledgments must come back in timestamp order across every
// ownership transfer — no INV dropped, none reordered, none spuriously
// obsolete — which is the per-record-FIFO half of the D13 equivalence
// argument exercised end to end, at both device charges (persistDelays):
// a host-path ack after a demotion must not overtake a NIC-path ack
// still waiting for its group commit.
func TestOffloadOverflowDemotesEndToEnd(t *testing.T) {
	for _, pd := range persistDelays {
		t.Run(pd.name, func(t *testing.T) { overflowDemotesEndToEnd(t, pd.delay) })
	}
}

func overflowDemotesEndToEnd(t *testing.T, delay time.Duration) {
	net := transport.NewMemNetwork(2)
	client := net.Endpoint(0) // raw: we play the coordinator by hand
	oc := &offload.Config{
		Cores: 1, VFIFODepth: 1, Slots: 16,
		InitialThreshold: 1, MinThreshold: 1,
		MaxPromotionsPerEpoch: 1 << 20,
		Epoch:                 -1,
	}
	n := New(Config{Model: ddp.LinSynch, PersistDelay: delay, Offload: oc}, net.Endpoint(1))
	n.Start()
	defer n.Close()

	const key = ddp.Key(7)
	const perRound = 300
	total := 0
	deadline := time.After(30 * time.Second)
	// The depth-1 vFIFO overflows as soon as delivery outpaces the
	// single NIC core; a handful of rounds is far more than enough.
	for round := 0; round < 5; round++ {
		for i := 1; i <= perRound; i++ {
			v := total + i
			m := ddp.Message{
				Kind: ddp.KindInv, Key: key,
				TS:    ddp.Timestamp{Node: 0, Version: ddp.Version(v)},
				Value: []byte{byte(v)},
				Size:  ddp.DataSize(1),
			}
			if err := client.Send(1, transport.Frame{Kind: transport.FrameMessage, Msg: m}); err != nil {
				t.Fatalf("send INV v%d: %v", v, err)
			}
		}
		got := 0
		for got < perRound {
			select {
			case f, ok := <-client.Recv():
				if !ok {
					t.Fatal("client endpoint closed early")
				}
				if f.Kind != transport.FrameMessage || f.Msg.Kind != ddp.KindAck {
					continue
				}
				got++
				if want := ddp.Version(total + got); f.Msg.TS.Version != want {
					t.Fatalf("ack %d carries version %d, want %d: the offload boundary reordered INVs",
						total+got, f.Msg.TS.Version, want)
				}
			case <-deadline:
				t.Fatalf("timed out with %d/%d acks in round %d", got, perRound, round)
			}
		}
		total += perRound
		if n.Offload().Demotions() > 0 {
			break
		}
	}
	if n.Offload().Demotions() == 0 {
		t.Fatalf("no vFIFO-overflow demotion in %d same-key INVs through a depth-1 vFIFO", total)
	}
	if n.Offload().Promotions() == 0 {
		t.Fatal("key never promoted")
	}

	// In-order application means no INV went obsolete: every write
	// persisted exactly once and the record sits at the final version.
	if l := n.Log().Len(); l != total {
		t.Fatalf("log has %d entries, want %d", l, total)
	}
	r := n.Store().Get(key)
	if r == nil {
		t.Fatal("record missing")
	}
	r.Lock()
	ts := r.Meta.VolatileTS
	r.Unlock()
	if int(ts.Version) != total {
		t.Fatalf("volatile TS version %d, want %d", ts.Version, total)
	}
	if invs := n.Stats.InvsHandled.Load(); int(invs) != total {
		t.Fatalf("handled %d INVs, want %d", invs, total)
	}
}
