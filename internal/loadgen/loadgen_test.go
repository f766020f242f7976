package loadgen

import (
	"testing"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/obs"
	"github.com/minos-ddp/minos/internal/workload"
)

// checkIdentity asserts the run's accounting identity: every offered
// arrival is classified exactly once.
func checkIdentity(t *testing.T, r *Result) {
	t.Helper()
	sum := r.Completed + r.ShedWindow + r.ShedNode + r.ShedSend + r.Errs + r.Abandoned
	if sum != r.Offered {
		t.Fatalf("accounting identity broken: offered %d != completed %d + shedWin %d + shedNode %d + shedSend %d + errs %d + abandoned %d",
			r.Offered, r.Completed, r.ShedWindow, r.ShedNode, r.ShedSend, r.Errs, r.Abandoned)
	}
	if r.Abandoned < 0 {
		t.Fatalf("negative abandoned count: %+v", r)
	}
}

func smokeConfig(fabric string, model ddp.Model) Config {
	return Config{
		Cluster: Cluster{Nodes: 3, Model: model, Fabric: fabric},
		Load: Load{
			Rate:           20000,
			Duration:       250 * time.Millisecond,
			Clients:        10000,
			Conns:          4,
			Window:         128,
			Seed:           1,
			PreloadRecords: 512,
		},
	}
}

func TestOpenLoopMemFabric(t *testing.T) {
	r, err := Run(smokeConfig("mem", ddp.LinSynch))
	if err != nil {
		t.Fatal(err)
	}
	checkIdentity(t, r)
	if r.Completed == 0 {
		t.Fatalf("no completions: %v", r)
	}
	if r.Errs > 0 {
		t.Fatalf("errors on a healthy cluster: %v", r)
	}
	if r.IntendedWrite.Count == 0 || r.IntendedRead.Count == 0 {
		t.Fatalf("latency histograms empty: %v", r)
	}
	if r.IntendedWrite.P99Ns <= 0 || r.IntendedRead.P50Ns <= 0 {
		t.Fatalf("degenerate quantiles: %+v %+v", r.IntendedWrite, r.IntendedRead)
	}
	// The cluster-side snapshot saw the client traffic.
	if got := r.Obs.Counter("node.client_served"); got == 0 {
		t.Fatal("node.client_served = 0")
	}
}

func TestOpenLoopRingFabric(t *testing.T) {
	r, err := Run(smokeConfig("ring", ddp.LinStrict))
	if err != nil {
		t.Fatal(err)
	}
	checkIdentity(t, r)
	if r.Completed == 0 || r.Errs > 0 {
		t.Fatalf("ring run: %v", r)
	}
}

func TestOpenLoopTCPFabric(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp fabric in -short")
	}
	cfg := smokeConfig("tcp", ddp.LinSynch)
	cfg.Load.Rate = 5000
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkIdentity(t, r)
	if r.Completed == 0 {
		t.Fatalf("tcp run completed nothing: %v", r)
	}
}

// TestOpenLoopTCPWire runs the cluster over real loopback TCP and reads
// the run's snapshot: the wire counters show batched frames flowing, and
// broadcasts, since invalidations fan out to the whole cluster.
func TestOpenLoopTCPWire(t *testing.T) {
	cfg := smokeConfig("tcp", ddp.LinSynch)
	cfg.Load.Rate = 5000
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed == 0 || r.Obs == nil {
		t.Fatalf("tcp run: %v", r)
	}
	if r.Obs.Counter("transport.frames_sent") == 0 || r.Obs.Counter("transport.batches_sent") == 0 {
		t.Fatalf("no wire traffic recorded: %s", r.Obs)
	}
	if r.Obs.Counter("transport.broadcasts") == 0 {
		t.Fatalf("no broadcasts recorded: %s", r.Obs)
	}
	if fpb := r.Obs.Ratio("transport.frames_sent", "transport.batches_sent"); fpb < 1 {
		t.Fatalf("frames/batch %.2f < 1", fpb)
	}
	// The same snapshot carries the protocol and pipeline layers.
	if r.Obs.Counter("node.writes") == 0 || r.Obs.Counter("nvm.pipeline.entries") == 0 {
		t.Fatalf("snapshot missing node/pipeline layers: %s", r.Obs)
	}
}

// TestOpenLoopScopedModel: Lin-Scope persisting its scope every 8
// writes through the client frontend.
func TestOpenLoopScopedModel(t *testing.T) {
	cfg := smokeConfig("mem", ddp.LinScope)
	wl := workload.Default()
	wl.ValueSize = 128
	wl.PersistEvery = 8
	cfg.Load.Workload = wl
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkIdentity(t, r)
	if r.Completed == 0 || r.Errs > 0 {
		t.Fatalf("scoped run: %v", r)
	}
}

// TestOpenLoopAllModels runs the default mix of every model through the
// client frontend.
func TestOpenLoopAllModels(t *testing.T) {
	for _, m := range ddp.Models {
		t.Run(m.String(), func(t *testing.T) {
			cfg := smokeConfig("mem", m)
			cfg.Load.Workload = workload.Default()
			cfg.Load.Workload.ValueSize = 128
			r, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkIdentity(t, r)
			if r.Completed == 0 || r.Errs > 0 {
				t.Fatalf("%v run: %v", m, r)
			}
		})
	}
}

// TestOpenLoopReadMostlyPreloaded runs the YCSB-B (95/5) and YCSB-C
// (pure read) mixes over the preloaded store: reads dominate, and the
// pure-read mix issues no writes at all.
func TestOpenLoopReadMostlyPreloaded(t *testing.T) {
	for _, preset := range []workload.Preset{workload.PresetB, workload.PresetC} {
		t.Run(preset.String(), func(t *testing.T) {
			cfg := smokeConfig("ring", ddp.LinSynch)
			cfg.Load.Workload = preset.Config()
			cfg.Load.Workload.Records = 512
			cfg.Load.Workload.ValueSize = 64
			r, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkIdentity(t, r)
			if r.Completed == 0 || r.Errs > 0 {
				t.Fatalf("%v run: %v", preset, r)
			}
			reads, writes := r.IntendedRead.Count, r.IntendedWrite.Count
			if reads == 0 || reads < writes {
				t.Fatalf("read-mostly mix: %d reads, %d writes", reads, writes)
			}
			if preset == workload.PresetC && writes != 0 {
				t.Fatalf("pure-read mix recorded %d writes", writes)
			}
		})
	}
}

// TestOpenLoopTraced: a traced run records coordinator spans, every
// span ends after it starts, and the snapshot's span count matches the
// spans collected.
func TestOpenLoopTraced(t *testing.T) {
	cfg := smokeConfig("mem", ddp.LinSynch)
	cfg.Observe = Observe{Trace: true}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	coord := 0
	for _, s := range r.Spans {
		if s.Role == obs.RoleCoordinator {
			coord++
		}
		if s.End < s.Start {
			t.Fatalf("span ends before it starts: %+v", s)
		}
	}
	if coord == 0 {
		t.Fatalf("no coordinator spans among %d", len(r.Spans))
	}
	if got := r.Obs.Counter("trace.spans_recorded"); got != int64(len(r.Spans)) {
		t.Fatalf("snapshot says %d spans, collected %d", got, len(r.Spans))
	}
}

// TestCoordinatedOmissionAccounting is the CO regression test. A
// cluster whose persists cost 1ms is offered far more than it can
// serve: 8 requests in flight (4 connections x window 2), each write
// at least 1ms, hold throughput below 16k op/s against 30k offered, on
// any machine. A closed-loop harness (or an open loop that measured
// send-to-response "service time" only) reports flattering latencies
// here: each stalled client just issues fewer requests, and the
// queueing delay vanishes from the sample set. The intended-start-time
// accounting must instead charge that delay to every affected
// operation.
//
// The assertions demonstrably fail under the old closed-loop
// accounting: ServiceWrite *is* that accounting (send-to-response on
// the ops that got through, windowed exactly like a pool of closed-loop
// workers), and the test requires IntendedWrite's p99 to dwarf it. The
// sample set must not shrink either: every offered arrival is
// classified, none silently skipped.
func TestCoordinatedOmissionAccounting(t *testing.T) {
	cfg := Config{
		Cluster: Cluster{
			Nodes:        3,
			Model:        ddp.LinSynch,
			Fabric:       "mem",
			PersistDelay: time.Millisecond,
			// A deep node queue: the overload backs up as delay, not as
			// node-side sheds (shedding is exercised elsewhere; here the
			// point is that delay must not be hidden).
			ClientWindow: 1 << 16,
		},
		Load: Load{
			Arrival:        "fixed",
			Rate:           30000,
			Duration:       300 * time.Millisecond,
			Clients:        5000,
			Conns:          4,
			Window:         2,
			Seed:           7,
			PreloadRecords: 256,
			DrainGrace:     5 * time.Second,
		},
	}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkIdentity(t, r)
	if r.Completed == 0 {
		t.Fatalf("overloaded run completed nothing: %v", r)
	}
	// ~9000 arrivals were scheduled; all of them must have been offered
	// and classified — a shrunken sample set is the CO failure mode.
	if r.Offered < 8000 {
		t.Fatalf("offered only %d arrivals; the schedule was not honored", r.Offered)
	}
	// The CO-safe p99 must charge the queueing delay the service-time
	// view hides. 3x is far below the real gap (typically 10-100x) but
	// robust against scheduler noise.
	if r.ServiceWrite.Count == 0 || r.IntendedWrite.Count == 0 {
		t.Fatalf("write histograms empty: %v", r)
	}
	if r.IntendedWrite.P99Ns < 3*r.ServiceWrite.P99Ns {
		t.Fatalf("intended p99 %.0fns not >= 3x service p99 %.0fns — coordinated omission is back",
			r.IntendedWrite.P99Ns, r.ServiceWrite.P99Ns)
	}
	// And the mean intended latency should approach the backlog's
	// scale (it grows through the run), not the service time's.
	if r.IntendedWrite.MeanNs < 2*r.ServiceWrite.MeanNs {
		t.Fatalf("intended mean %.0fns suspiciously close to service mean %.0fns",
			r.IntendedWrite.MeanNs, r.ServiceWrite.MeanNs)
	}
}
