// Command minos-benchscale drives the open-loop load engine
// (internal/loadgen) against a live cluster and sweeps the offered
// arrival rate to the knee: the highest rate at which the cluster
// still serves the load within the latency SLO. One cell per
// persistency model × fabric × offload mode; within a cell the rate
// doubles each step until the intended-time write p99 blows past the
// SLO or goodput falls below the knee fraction of the offered rate.
//
// Why the SLO, not goodput alone: the engine's dispatcher blocks for
// window slots rather than dropping arrivals (dropping would
// reintroduce coordinated omission), so past the knee nearly every op
// still *completes* — late. Saturation shows up exactly where it
// should: in the intended-start-time tail, which grows with the
// backlog. Goodput only collapses when nodes shed or ops are
// abandoned outright.
//
// Unlike the closed-loop bench commands, every latency here is charged
// against the op's *intended* arrival time (coordinated-omission-safe),
// so the post-knee rows show the queueing delay a closed loop hides.
// Load shedding is explicit: arrivals a node refuses (admission window
// full) come back StatusShed and are counted, never silently retried.
//
//	minos-benchscale -json BENCH_scale.json          # full sweep (~1M clients)
//	minos-benchscale -smoke -json BENCH_scale.json   # CI smoke (one small cell)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/loadgen"
	"github.com/minos-ddp/minos/internal/offload"
	"github.com/minos-ddp/minos/internal/stats"
	"github.com/minos-ddp/minos/internal/workload"
)

// stepRow is one rate point of a cell's ladder.
type stepRow struct {
	Rate           float64      `json:"rate_ops_s"`
	Offered        int64        `json:"offered"`
	Completed      int64        `json:"completed"`
	ShedWindow     int64        `json:"shed_window"`
	ShedNode       int64        `json:"shed_node"`
	ShedSend       int64        `json:"shed_send"`
	Errs           int64        `json:"errs"`
	Abandoned      int64        `json:"abandoned"`
	ElapsedNs      int64        `json:"elapsed_ns"`
	ThroughputOpsS float64      `json:"throughput_ops_s"`
	GoodputFrac    float64      `json:"goodput_frac"` // throughput / offered rate
	IntendedWrite  stats.Report `json:"intended_write"`
	IntendedRead   stats.Report `json:"intended_read"`
	ServiceWrite   stats.Report `json:"service_write"`
	ServiceRead    stats.Report `json:"service_read"`
	Knee           bool         `json:"knee,omitempty"` // first step past the knee
	KneeReason     string       `json:"knee_reason,omitempty"`
}

// cell is one model × fabric × offload sweep.
type cell struct {
	Model    string    `json:"model"`
	Fabric   string    `json:"fabric"`
	Offload  bool      `json:"offload"`
	Clients  int       `json:"clients"`
	Conns    int       `json:"conns"`
	KneeRate float64   `json:"knee_rate_ops_s"` // highest rate inside SLO and goodput bounds
	Steps    []stepRow `json:"steps"`
}

func main() {
	jsonPath := flag.String("json", "", "write the sweep into this JSON file")
	nodes := flag.Int("nodes", 5, "cluster size")
	clients := flag.Int("clients", 1_000_000, "logical clients (multiplexed over -conns connections)")
	conns := flag.Int("conns", 16, "transport connections carrying the logical clients")
	window := flag.Int("window", 256, "per-connection in-flight window")
	clientWindow := flag.Int("client-window", 0, "per-node bound on client ops in flight (0 = loadgen default); beyond it nodes shed")
	models := flag.String("models", "Lin-Synch,Lin-Strict", "comma-separated persistency models")
	fabrics := flag.String("fabrics", "ring,tcp", "comma-separated fabrics (mem, ring, tcp)")
	offloadMode := flag.String("offload", "both", "offload modes per cell: off, on, or both")
	arrival := flag.String("arrival", "poisson", "arrival process: poisson or fixed")
	rate0 := flag.Float64("rate0", 12500, "starting offered rate (ops/s); doubles each step")
	steps := flag.Int("steps", 6, "max ladder steps per cell")
	duration := flag.Duration("duration", 800*time.Millisecond, "issue window per step")
	persist := flag.Duration("persist", 1295*time.Nanosecond, "emulated NVM persist delay")
	preload := flag.Int("preload", 4096, "records preloaded on every node")
	seed := flag.Int64("seed", 42, "arrival/workload seed")
	kneeFrac := flag.Float64("knee", 0.7, "goodput fraction below which the knee is declared")
	slo := flag.Duration("slo", 250*time.Millisecond, "intended-time write p99 past this declares the knee")
	smoke := flag.Bool("smoke", false, "CI smoke: one small ring cell, short windows")
	flag.Parse()

	if *smoke {
		*clients, *conns = 100_000, 8
		*models, *fabrics, *offloadMode = "Lin-Synch", "ring", "off"
		*rate0, *steps, *duration = 10000, 2, 150*time.Millisecond
	}

	modelList, err := parseModels(*models)
	if err != nil {
		fatal(err)
	}
	fabricList := strings.Split(*fabrics, ",")
	var offloadList []bool
	switch *offloadMode {
	case "off":
		offloadList = []bool{false}
	case "on":
		offloadList = []bool{true}
	case "both":
		offloadList = []bool{false, true}
	default:
		fatal(fmt.Errorf("unknown -offload mode %q (want off, on, both)", *offloadMode))
	}

	fmt.Printf("scale sweep: %d nodes, %d logical clients / %d conns, window %d, %s arrivals, %v/step, knee at wr p99 > %v or goodput < %.0f%%\n\n",
		*nodes, *clients, *conns, *window, *arrival, *duration, *slo, *kneeFrac*100)

	var cells []cell
	for _, fabric := range fabricList {
		fabric = strings.TrimSpace(fabric)
		for _, model := range modelList {
			for _, off := range offloadList {
				c := runCell(cellConfig{
					nodes: *nodes, clients: *clients, conns: *conns, window: *window,
					clientWindow: *clientWindow, model: model, fabric: fabric, offload: off,
					arrival: *arrival, rate0: *rate0, steps: *steps, duration: *duration,
					persist: *persist, preload: *preload, seed: *seed, kneeFrac: *kneeFrac,
					slo: *slo,
				})
				cells = append(cells, c)
			}
		}
	}

	if *jsonPath != "" {
		doc := map[string]any{
			"config": map[string]any{
				"nodes": *nodes, "clients": *clients, "conns": *conns, "window": *window,
				"arrival": *arrival, "rate0_ops_s": *rate0, "max_steps": *steps,
				"step_duration_ns": duration.Nanoseconds(), "persist_ns": persist.Nanoseconds(),
				"knee_frac": *kneeFrac, "slo_ns": slo.Nanoseconds(), "seed": *seed, "smoke": *smoke,
			},
			"cells": cells,
		}
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonPath, append(buf, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote %s\n", *jsonPath)
	}
}

type cellConfig struct {
	nodes, clients, conns, window, clientWindow int
	model                                       ddp.Model
	fabric                                      string
	offload                                     bool
	arrival                                     string
	rate0                                       float64
	steps                                       int
	duration                                    time.Duration
	persist                                     time.Duration
	preload                                     int
	seed                                        int64
	kneeFrac                                    float64
	slo                                         time.Duration
}

func runCell(cc cellConfig) cell {
	wl := workload.Default()
	wl.ValueSize = 128
	if cc.model == ddp.LinScope && wl.PersistEvery == 0 {
		wl.PersistEvery = 8
	}

	mode := "B"
	if cc.offload {
		mode = "O"
	}
	c := cell{
		Model: fmt.Sprint(cc.model), Fabric: cc.fabric, Offload: cc.offload,
		Clients: cc.clients, Conns: cc.conns,
	}
	rate := cc.rate0
	for i := 0; i < cc.steps; i++ {
		cfg := loadgen.Config{
			Cluster: loadgen.Cluster{
				Nodes:        cc.nodes,
				Model:        cc.model,
				PersistDelay: cc.persist,
				Fabric:       cc.fabric,
				ClientWindow: cc.clientWindow,
			},
			Load: loadgen.Load{
				Arrival:        cc.arrival,
				Rate:           rate,
				Duration:       cc.duration,
				Clients:        cc.clients,
				Conns:          cc.conns,
				Window:         cc.window,
				Workload:       wl,
				PreloadRecords: cc.preload,
				Seed:           cc.seed,
			},
			Offload: loadgen.Offload{Enabled: cc.offload},
		}
		if cc.offload {
			// Sweep steps are sub-second; engage the offload policy on the
			// same accelerated schedule the offload bench uses.
			cfg.Offload.Config = &offload.Config{
				Epoch:            2 * time.Millisecond,
				InitialThreshold: 8,
				MinThreshold:     4,
			}
		}
		res, err := loadgen.Run(cfg)
		if err != nil {
			fatal(fmt.Errorf("%v/%s rate %.0f: %w", cc.model, cc.fabric, rate, err))
		}
		row := stepRow{
			Rate: rate, Offered: res.Offered, Completed: res.Completed,
			ShedWindow: res.ShedWindow, ShedNode: res.ShedNode, ShedSend: res.ShedSend,
			Errs: res.Errs, Abandoned: res.Abandoned,
			ElapsedNs:      res.Elapsed.Nanoseconds(),
			ThroughputOpsS: res.Throughput(),
			GoodputFrac:    res.Throughput() / rate,
			IntendedWrite:  res.IntendedWrite,
			IntendedRead:   res.IntendedRead,
			ServiceWrite:   res.ServiceWrite,
			ServiceRead:    res.ServiceRead,
		}
		switch {
		case row.GoodputFrac < cc.kneeFrac:
			row.Knee, row.KneeReason = true, "goodput"
		case row.IntendedWrite.P99Ns > float64(cc.slo.Nanoseconds()):
			row.Knee, row.KneeReason = true, "slo"
		}
		c.Steps = append(c.Steps, row)
		if !row.Knee {
			c.KneeRate = rate
		}
		fmt.Printf("%-5s %-10v %s rate %8.0f -> %8.0f op/s (%.0f%%) wr p99 %9.0f ns shedNode=%d%s\n",
			cc.fabric, cc.model, mode, rate, row.ThroughputOpsS, row.GoodputFrac*100,
			row.IntendedWrite.P99Ns, row.ShedNode, kneeTag(row))
		if row.Knee {
			break // the knee is found; higher rates only deepen the backlog
		}
		rate *= 2
	}
	return c
}

func kneeTag(row stepRow) string {
	if !row.Knee {
		return ""
	}
	return "  <- knee (" + row.KneeReason + ")"
}

func parseModels(s string) ([]ddp.Model, error) {
	var out []ddp.Model
	for _, name := range strings.Split(s, ",") {
		m, err := ddp.ParseModel(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "minos-benchscale:", err)
	os.Exit(1)
}
