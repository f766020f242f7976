// Command minos-live measures the live MINOS runtime (real goroutines,
// emulated NVM) across all five DDP models — the counterpart of the
// paper's §IV measurements on a real cluster. Each model gets one
// open-loop run of internal/loadgen: arrivals at a fixed offered rate
// enter through the nodes' client frontends, and latency is charged
// against each op's intended arrival time.
//
// Usage:
//
//	minos-live                          # all models, 5 nodes, in-process fabric
//	minos-live -fabric ring             # shared-memory rings, polled inline
//	minos-live -fabric tcp              # loopback TCP (batched wire path)
//	minos-live -offload -fabric ring    # MINOS-O: soft-NIC engine on every node
//	minos-live -nodes 3 -rate 5000 -duration 300ms -trace TRACE.json
//
// It exits 1 if any model's run returns an error response or completes
// nothing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/loadgen"
	"github.com/minos-ddp/minos/internal/obs"
	"github.com/minos-ddp/minos/internal/workload"
)

func main() {
	nodes := flag.Int("nodes", 5, "cluster size")
	rate := flag.Float64("rate", 20000, "offered arrival rate in ops/s, across the cluster")
	duration := flag.Duration("duration", time.Second, "issue window per model")
	writes := flag.Float64("writes", 0.5, "write ratio")
	persist := flag.Duration("persist", 1295*time.Nanosecond, "emulated NVM persist delay")
	valueSize := flag.Int("value", 128, "record value bytes")
	seed := flag.Int64("seed", 42, "arrival and workload seed")
	fabric := flag.String("fabric", "mem", "cluster interconnect: mem, ring (shared-memory SPSC rings, polled inline), or tcp")
	tracePath := flag.String("trace", "", "record per-transaction phase spans and write them to this JSON file (minos-trace's input)")
	traceSample := flag.Int("trace-sample", obs.DefaultSampleEvery, "trace one transaction in N (1 = every transaction)")
	offload := flag.Bool("offload", false, "enable the soft-NIC offload engine (MINOS-O) on every node")
	theta := flag.Float64("theta", 0, "zipfian skew (0 = workload default 0.99)")
	churn := flag.Int("churn", 0, "rotate the hot key set every N ops (0 = stable hot set)")
	flag.Parse()

	wl := workload.Default()
	wl.WriteRatio = *writes
	wl.ValueSize = *valueSize
	if *theta > 0 {
		wl.ZipfTheta = *theta
	}
	wl.HotChurnEvery = *churn

	mode := "MINOS-B"
	if *offload {
		mode = "MINOS-O"
	}
	fmt.Printf("live %s: %d nodes, %s, %.0f op/s offered for %v, %d%% writes, persist %v\n\n",
		mode, *nodes, *fabric, *rate, *duration, int(*writes*100), *persist)

	var runs []traceRun
	failed := false
	for _, m := range ddp.Models {
		mwl := wl
		if m == ddp.LinScope {
			mwl.PersistEvery = 8
		}
		res, err := loadgen.Run(loadgen.Config{
			Cluster: loadgen.Cluster{Nodes: *nodes, Model: m, PersistDelay: *persist, Fabric: *fabric},
			Load:    loadgen.Load{Rate: *rate, Duration: *duration, Workload: mwl, Seed: *seed},
			Observe: loadgen.Observe{Trace: *tracePath != "", TraceSample: *traceSample},
			Offload: loadgen.Offload{Enabled: *offload},
		})
		if err != nil {
			fatal(fmt.Errorf("%v: %w", m, err))
		}
		fmt.Println(res)
		failed = failed || res.Errs > 0 || res.Completed == 0
		runs = append(runs, traceRun{Model: fmt.Sprint(m), Spans: res.Spans})
	}
	if *tracePath != "" {
		if err := writeTrace(*tracePath, runs); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote %s\n", *tracePath)
	}
	if failed {
		fatal(fmt.Errorf("a run returned errors or completed nothing"))
	}
}

// traceRun is one model's recorded spans in the trace file minos-trace
// replays.
type traceRun struct {
	Model string     `json:"model"`
	Spans []obs.Span `json:"spans"`
}

// writeTrace dumps each model's spans as {"runs": [{model, spans}]}.
func writeTrace(path string, runs []traceRun) error {
	buf, err := json.Marshal(map[string]any{"runs": runs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "minos-live:", err)
	os.Exit(1)
}
