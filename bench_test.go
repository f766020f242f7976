package minos

// One benchmark per table/figure of the paper's evaluation, plus
// protocol micro-benchmarks. Each figure benchmark runs the experiment
// at a reduced-but-stable scale and reports the headline quantities the
// paper cites as custom metrics, so `go test -bench=.` regenerates the
// entire evaluation. cmd/minos-bench prints the full tables.

import (
	"strings"
	"testing"
	"time"

	"github.com/minos-ddp/minos/internal/check"
	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/experiments"
	"github.com/minos-ddp/minos/internal/loadgen"
	"github.com/minos-ddp/minos/internal/node"
	"github.com/minos-ddp/minos/internal/simcluster"
	"github.com/minos-ddp/minos/internal/transport"
	"github.com/minos-ddp/minos/internal/workload"
)

var benchScale = experiments.Quick

// BenchmarkFig4WriteBreakdown regenerates Fig 4: MINOS-B write latency
// split into communication and computation per model.
func BenchmarkFig4WriteBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Fig4(benchScale)
		if i == b.N-1 {
			for _, r := range rows {
				b.ReportMetric(r.CommFrac*100, r.Model.String()+"_comm%")
			}
		}
	}
}

// BenchmarkFig9LatencyThroughput regenerates Fig 9: MINOS-B vs MINOS-O
// across models and write/read mixes.
func BenchmarkFig9LatencyThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _ := experiments.Fig9(benchScale)
		if i == b.N-1 {
			b.ReportMetric(res.SpeedupWriteLat, "write-lat-x(paper:2.1)")
			b.ReportMetric(res.SpeedupReadLat, "read-lat-x(paper:2.2)")
			b.ReportMetric(res.SpeedupThr, "throughput-x(paper:2.3)")
		}
	}
}

// BenchmarkFig10NodeScaling regenerates Fig 10: node counts 2-10.
func BenchmarkFig10NodeScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _ := experiments.Fig10(benchScale)
		if i == b.N-1 {
			b.ReportMetric(res.SpeedupWriteLat, "write-lat-x(paper:2.3)")
			b.ReportMetric(res.SpeedupReadLat, "read-lat-x(paper:3.1)")
			b.ReportMetric(res.SpeedupThr, "throughput-x(paper:2.4)")
		}
	}
}

// BenchmarkFig11Microservices regenerates Fig 11: DeathStar Login
// end-to-end latency on 16 nodes.
func BenchmarkFig11Microservices(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _ := experiments.Fig11(benchScale)
		if i == b.N-1 {
			b.ReportMetric(res.AvgReduction*100, "e2e-reduction-%(paper:35)")
			b.ReportMetric(res.AvgReductionStorage*100, "storage-reduction-%")
		}
	}
}

// BenchmarkFig12Ablation regenerates Fig 12: the seven optimization
// combinations under 100% writes.
func BenchmarkFig12Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Fig12(benchScale)
		if i == b.N-1 {
			for _, r := range rows {
				b.ReportMetric(r.Norm, r.Name+"_norm")
			}
		}
	}
}

// BenchmarkFig13FIFOSize regenerates Fig 13: vFIFO/dFIFO sensitivity.
func BenchmarkFig13FIFOSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Fig13(benchScale)
		if i == b.N-1 {
			for _, r := range rows {
				name := "unlimited"
				if r.Entries > 0 {
					name = string(rune('0'+r.Entries%10)) + "entries"
					if r.Entries >= 10 {
						name = "100entries"
					}
				}
				b.ReportMetric(r.Norm, name+"_norm")
			}
		}
	}
}

// BenchmarkFig14Sensitivity regenerates Fig 14: persist latency, key
// distribution, and database-size sweeps.
func BenchmarkFig14Sensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Fig14(benchScale)
		if i == b.N-1 {
			for _, r := range rows {
				// Metric units must not contain whitespace.
				name := strings.ReplaceAll(r.Group+"/"+r.Setting+"_x", " ", "-")
				b.ReportMetric(r.Speedup, name)
			}
		}
	}
}

// BenchmarkTableIModelCheck runs the Table I verification (two
// concurrent writers, 3 nodes) for every model and reports explored
// state counts.
func BenchmarkTableIModelCheck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, model := range ddp.Models {
			res := check.Run(check.Config{Model: model, Nodes: 3, Writers: []ddp.NodeID{0, 1}})
			if !res.OK() {
				b.Fatalf("Table I violated: %v", res)
			}
			if i == b.N-1 {
				b.ReportMetric(float64(res.States), model.String()+"_states")
			}
		}
	}
}

// BenchmarkSimWriteLatency measures one simulated client-write through
// the full MINOS-B protocol stack (wall-clock cost of the simulator).
func BenchmarkSimWriteLatency(b *testing.B) {
	for _, opts := range []simcluster.Opts{simcluster.MinosB, simcluster.MinosO} {
		opts := opts
		b.Run(opts.String(), func(b *testing.B) {
			cfg := simcluster.DefaultConfig()
			cfg.Opts = opts
			wl := workload.Config{Records: 1000, WriteRatio: 1.0, Dist: workload.Uniform}
			n := b.N/cfg.Nodes + 1
			b.ResetTimer()
			m := simcluster.RunDefault(cfg, wl, n, 1)
			b.ReportMetric(m.AvgWriteNs(), "sim-ns/write")
		})
	}
}

// BenchmarkLiveWrite measures a real client-write on a live in-process
// 3-node cluster (goroutines + channels, no simulated time).
func BenchmarkLiveWrite(b *testing.B) {
	for _, model := range []ddp.Model{ddp.LinSynch, ddp.LinEvent} {
		model := model
		b.Run(model.String(), func(b *testing.B) {
			net := transport.NewMemNetwork(3)
			nodes := make([]*node.Node, 3)
			for i := range nodes {
				nodes[i] = node.New(node.Config{Model: model}, net.Endpoint(ddp.NodeID(i)))
				nodes[i].Start()
			}
			defer func() {
				for _, nd := range nodes {
					nd.Close()
				}
			}()
			value := make([]byte, 128)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := nodes[0].Write(ddp.Key(i%512), value); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLiveRead measures a real client-read.
func BenchmarkLiveRead(b *testing.B) {
	net := transport.NewMemNetwork(3)
	nodes := make([]*node.Node, 3)
	for i := range nodes {
		nodes[i] = node.New(node.Config{Model: ddp.LinSynch}, net.Endpoint(ddp.NodeID(i)))
		nodes[i].Start()
	}
	defer func() {
		for _, nd := range nodes {
			nd.Close()
		}
	}()
	if err := nodes[0].Write(1, make([]byte, 128)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nodes[1].Read(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblations runs the design-choice ablations (DESIGN.md D1-D4):
// SmartNIC cores, drain engines, host cores, and YCSB presets.
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		snic, _ := experiments.AblationSNICCores(benchScale)
		drain, _ := experiments.AblationDrainEngines(benchScale)
		host, _ := experiments.AblationHostCores(benchScale)
		ycsb, _ := experiments.YCSBPresets(benchScale)
		if i == b.N-1 {
			b.ReportMetric(snic[len(snic)-1].Thr/snic[0].Thr, "snic-16c-vs-1c-thr-x")
			b.ReportMetric(drain[len(drain)-1].Thr/drain[0].Thr, "drain-8e-vs-1e-thr-x")
			b.ReportMetric(host[len(host)-1].Thr/host[0].Thr, "host-20c-vs-2c-thr-x")
			b.ReportMetric(float64(len(ycsb)), "ycsb-rows")
		}
	}
}

// BenchmarkLiveModels measures the live runtime across all models — the
// §IV counterpart on real goroutines: one open-loop run per model
// through the client frontend, reporting the intended-time write p50.
func BenchmarkLiveModels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, m := range ddp.Models {
			wl := workload.Default()
			wl.ValueSize = 128
			if m == ddp.LinScope {
				wl.PersistEvery = 8
			}
			res, err := loadgen.Run(loadgen.Config{
				Cluster: loadgen.Cluster{Nodes: 3, Model: m},
				Load:    loadgen.Load{Rate: 10000, Duration: 200 * time.Millisecond, Workload: wl, Seed: 7},
			})
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				b.ReportMetric(res.IntendedWrite.P50Ns, m.String()+"_wr_p50_ns")
			}
		}
	}
}
