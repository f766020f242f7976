// Command minos-benchobs measures what the observability layer costs
// on the node write path: the serial write microbenchmark (the shape
// of BenchmarkNodeWrite) per DDP model with tracing off, on at the
// production sampling rate (1-in-obs.DefaultSampleEvery), and on with
// every transaction recorded. The acceptance bar is <5% overhead for
// the sampled configuration with the NVM delay disabled (the worst
// case for the tracer: nothing else to hide behind) and ~0% untraced,
// since the disabled tracer is a nil-pointer check. Full tracing is
// reported unguarded — it pays one monotonic clock read per phase
// boundary, which is exactly what sampling amortizes.
//
// Usage:
//
//	minos-benchobs -json BENCH_obs.json
//
// Results land under a -label key via the same merge pattern as
// minos-benchnode, so baseline and current runs share one document.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/node"
	"github.com/minos-ddp/minos/internal/obs"
	"github.com/minos-ddp/minos/internal/transport"
)

func main() {
	label := flag.String("label", "after", "JSON key to store this run under")
	jsonPath := flag.String("json", "", "merge results into this JSON file (other labels preserved)")
	reps := flag.Int("reps", 3, "benchmark repetitions per point (best is kept)")
	flag.Parse()

	points := run(*reps)
	worst := 0.0
	for _, p := range points {
		if p.OverheadPct > worst {
			worst = p.OverheadPct
		}
	}
	fmt.Printf("\nworst traced overhead: %.2f%%\n", worst)

	if *jsonPath != "" {
		doc := map[string]any{"points": points, "worst_overhead_pct": worst}
		if err := mergeJSON(*jsonPath, *label, doc); err != nil {
			fmt.Fprintln(os.Stderr, "minos-benchobs:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s under %q\n", *jsonPath, *label)
	}
	if worst >= 5.0 {
		fmt.Fprintf(os.Stderr, "minos-benchobs: traced overhead %.2f%% breaches the 5%% budget\n", worst)
		os.Exit(1)
	}
}

// point is one model's untraced-vs-traced comparison. Traced is the
// production configuration (1-in-obs.DefaultSampleEvery sampling);
// FullTraced records every transaction and is reported for
// transparency but not gated — its cost is the per-phase clock read,
// which sampling exists to amortize.
type point struct {
	Model           string  `json:"model"`
	UntracedNs      float64 `json:"untraced_ns_per_op"`
	TracedNs        float64 `json:"traced_ns_per_op"`
	FullTracedNs    float64 `json:"full_traced_ns_per_op"`
	OverheadPct     float64 `json:"overhead_pct"`
	FullOverheadPct float64 `json:"full_overhead_pct"`
	Spans           uint64  `json:"spans_recorded"`
}

func run(reps int) []point {
	var out []point
	for _, model := range ddp.Models {
		if model == ddp.LinScope {
			// Scoped writes interleave Persist calls; the plain-write models
			// already cover every traced phase.
			continue
		}
		// Interleave the three configurations' repetitions so slow drift
		// in the machine (frequency scaling, background load) hits every
		// side equally; keep each side's fastest rep.
		sampled := obs.NewTracer(0)
		sampled.SetSampleEvery(obs.DefaultSampleEvery)
		full := obs.NewTracer(0)
		var base, traced, fullNs float64
		for i := 0; i < reps; i++ {
			if ns := once(model, nil); base == 0 || ns < base {
				base = ns
			}
			if ns := once(model, sampled); traced == 0 || ns < traced {
				traced = ns
			}
			if ns := once(model, full); fullNs == 0 || ns < fullNs {
				fullNs = ns
			}
		}
		pct := func(ns float64) float64 {
			if base <= 0 {
				return 0
			}
			return (ns - base) / base * 100
		}
		p := point{
			Model: fmt.Sprint(model), UntracedNs: base, TracedNs: traced,
			FullTracedNs: fullNs, OverheadPct: pct(traced),
			FullOverheadPct: pct(fullNs), Spans: sampled.Recorded(),
		}
		out = append(out, p)
		fmt.Printf("%-12v untraced %8.0f ns/op  traced %8.0f ns/op (%+5.2f%%)  full %8.0f ns/op (%+5.2f%%)  %d spans\n",
			model, base, traced, p.OverheadPct, fullNs, p.FullOverheadPct, p.Spans)
	}
	return out
}

// once runs the serial write benchmark a single time and returns its
// ns/op.
func once(model ddp.Model, tr *obs.Tracer) float64 {
	return nsPerOp(testing.Benchmark(func(b *testing.B) {
		benchWrites(b, model, tr)
	}))
}

// benchWrites is the serial BenchmarkNodeWrite body: a 3-node
// in-process cluster, 128-byte writes, no NVM delay (so the tracer has
// no device latency to hide behind). Only node 0 — the coordinator
// being measured — carries the tracer.
func benchWrites(b *testing.B, model ddp.Model, tr *obs.Tracer) {
	net := transport.NewMemNetwork(3)
	nodes := make([]*node.Node, 3)
	for i := range nodes {
		cfg := node.Config{Model: model}
		if i == 0 {
			cfg.Tracer = tr
		}
		nodes[i] = node.New(cfg, net.Endpoint(ddp.NodeID(i)))
		nodes[i].Start()
	}
	defer func() {
		for _, nd := range nodes {
			nd.Close()
		}
	}()
	val := bytes.Repeat([]byte("v"), 128)
	n := nodes[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n.Write(ddp.Key(i&255), val); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
}

func nsPerOp(r testing.BenchmarkResult) float64 {
	if r.N <= 0 {
		return 0
	}
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

// mergeJSON stores doc under label in path, preserving every other
// top-level key.
func mergeJSON(path, label string, doc map[string]any) error {
	full := map[string]any{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &full); err != nil {
			return fmt.Errorf("existing %s is not valid JSON: %w", path, err)
		}
	}
	full[label] = doc
	buf, err := json.MarshalIndent(full, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
