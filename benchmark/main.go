// Command benchmark is the repository's benchmark: four workloads over a
// live 5-node MINOS cluster in this process, eight end-to-end metrics
// each, and a separate traced run for the per-layer metrics. README.md
// says what each workload and metric is for; BENCHMARK.json is the
// contract the metrics are gated by.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// buildDir is where run.sh builds and where a run keeps what it writes
// unasked: the gate's state and the traced run's spans. It is relative to
// the working directory, the root of the checkout.
const buildDir = ".bench_build"

// header says where and on what a report was measured. Two reports
// compare only when their machine-shaped fields agree.
type header struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Load1      float64 `json:"load1"`
	Trace      bool    `json:"trace"`
	Rounds     int     `json:"rounds"`
	RoundSec   float64 `json:"round_s"`
	// QuietWorst is the slowest a round found the box when it started,
	// as a multiple of the fastest this checkout has seen it; QuietWaitS
	// is how long the run waited for a quiet box (quiet.go).
	QuietWorst float64 `json:"quiet_worst"`
	QuietWaitS float64 `json:"quiet_wait_s"`
}

// report is what -out writes and -compare reads.
type report struct {
	Header    header             `json:"header"`
	Workloads map[string]*result `json:"workloads"`
}

func newHeader(seed int64, trace bool, opt options) header {
	h := header{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Seed:       seed,
		Trace:      trace,
		Rounds:     opt.rounds,
		RoundSec:   opt.roundDur.Seconds(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				h.Commit = s.Value[:12]
			}
		}
	}
	if raw, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(raw)); len(f) > 0 {
			h.Load1, _ = strconv.ParseFloat(f[0], 64) // unparsable reads as 0: no warning
		}
	}
	return h
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		only     = fs.String("workload", "", "run only this workload and end with the contract's one-line JSON result")
		seed     = fs.Int64("seed", 1, "seed of the arrival schedules and key streams")
		seconds  = fs.Float64("seconds", 20, "driven time per workload, split over the warm-up and the rounds")
		rounds   = fs.Int("rounds", 7, "measured rounds per workload; each metric is the median over them")
		roundDur = fs.Duration("round-dur", 0, "length of one round (default: seconds / rounds)")
		trace    = fs.Int("trace", 0, "1: the traced run, which reports the per-layer metrics")
		out      = fs.String("out", "", "write the report as JSON to this file")
		traceOut = fs.String("trace-out", "", "traced run: write the spans to this file (default .bench_build/trace_<workload>.json)")
		smoke    = fs.Bool("smoke", false, "1 round of 200 ms per workload on a small database: checks the plumbing, measures nothing")
		compare  = fs.Bool("compare", false, "compare two reports: -compare a.json b.json")
	)
	fs.StringVar(only, "only", "", "alias of -workload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *rounds < 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -h")
		return 2
	}

	traced := *trace == 1
	opt := options{seed: *seed, rounds: *rounds, setups: 5, records: preloadRecords, probes: 20, shrink: 1, traceOut: *traceOut,
		gate: newQuietGate(buildDir)}
	// The time asked for covers the warm-up too: half a round here, and
	// half a round on each of the traced run's three clusters, which
	// share rounds+1 measured rounds between them.
	slices := float64(*rounds) + 0.5
	if traced {
		slices = float64(*rounds+1) + 1.5
	}
	opt.roundDur = time.Duration(*seconds / slices * float64(time.Second))
	if *roundDur > 0 {
		opt.roundDur = *roundDur
	}
	opt.warmDur = min(max(opt.roundDur/2, 100*time.Millisecond), 2*time.Second)
	if *smoke {
		opt = smokeOptions(opt)
	}

	specs := workloads
	if *only != "" {
		sp, ok := findWorkload(*only)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *only)
			return 2
		}
		specs = []spec{sp}
	}

	rep := report{Header: newHeader(*seed, traced, opt), Workloads: map[string]*result{}}
	h := rep.Header
	fmt.Fprintf(stdout, "# nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d load1=%.2f trace=%t rounds=%d round=%s\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, h.Seed, h.Load1, h.Trace, h.Rounds, opt.roundDur)
	if h.Load1 > 0.5 {
		fmt.Fprintf(stderr, "benchmark: warning: 1-minute load average is %.2f; this box is shared, expect noise\n", h.Load1)
	}

	defs, runOne := endToEnd, runEndToEnd
	if traced {
		defs, runOne = perLayer, runTraced
	}
	code := 0
	for _, sp := range specs {
		o := opt
		if traced && o.traceOut == "" {
			o.traceOut = filepath.Join(buildDir, "trace_"+sp.name+".json")
		}
		res, err := runOne(sp, o)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", sp.name, err)
			return 1
		}
		rep.Workloads[sp.name] = res
		for _, d := range defs {
			fmt.Fprintf(stdout, "%s %s %v %s\n", sp.name, d.Name, res.Metrics[d.Name].Value, d.Unit)
		}
		for _, e := range res.Errors {
			fmt.Fprintf(stderr, "benchmark: %s: FAILED: %s\n", sp.name, e)
		}
		if !res.Correct {
			code = 1
		}
		settle()
	}

	if g := opt.gate; g != nil {
		g.save()
		rep.Header.QuietWorst, rep.Header.QuietWaitS = g.worst, g.waited.Seconds()
		fmt.Fprintf(stdout, "# quiet gate: the slowest round started with the box at %.2fx its best (%v); waited %v\n",
			g.worst, time.Duration(g.state.BestNs), g.waited.Round(time.Millisecond))
		if g.worst > quietFactor {
			fmt.Fprintf(stderr, "benchmark: warning: measured on a disturbed box (%.2fx slower than its best) after waiting %v\n", g.worst, g.waited.Round(time.Second))
		}
	}
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	if *only != "" {
		// The contract's last line: exactly its four keys.
		last := *rep.Workloads[*only]
		last.Rounds, last.Errors = nil, nil
		line, err := json.Marshal(last)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
	}
	return code
}

// smokeOptions shrinks a run until it takes a fraction of a second per
// workload. Its numbers mean nothing; its checks still run.
func smokeOptions(o options) options {
	o.rounds, o.roundDur, o.warmDur = 1, 200*time.Millisecond, 100*time.Millisecond
	o.setups, o.records, o.probes, o.shrink, o.gate = 1, 10_000, 3, 20, nil
	return o
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// runCompare prints, per workload and end-to-end metric, both reports'
// values, b's difference from a and the bound, and returns 1 if b is
// worse than a by more than a bound. It refuses reports that were not
// measured alike: a difference between machines is not a regression.
func runCompare(paths []string, stdout, stderr io.Writer) int {
	if len(paths) != 2 {
		fmt.Fprintln(stderr, "benchmark: -compare takes two report files")
		return 2
	}
	a, err := readReport(paths[0])
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	b, err := readReport(paths[1])
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	if why := incomparable(a.Header, b.Header); why != "" {
		fmt.Fprintf(stderr, "benchmark: reports are not comparable: %s\n", why)
		return 2
	}
	worse := compareReports(a, b, stdout)
	if worse > 0 {
		fmt.Fprintf(stdout, "%d metric(s) worse than their bound\n", worse)
		return 1
	}
	return 0
}

func incomparable(a, b header) string {
	switch {
	case a.NProc != b.NProc:
		return fmt.Sprintf("nproc %d vs %d", a.NProc, b.NProc)
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Sprintf("GOMAXPROCS %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS)
	case a.GoVersion != b.GoVersion:
		return fmt.Sprintf("Go version %s vs %s", a.GoVersion, b.GoVersion)
	case a.Seed != b.Seed:
		return fmt.Sprintf("seed %d vs %d", a.Seed, b.Seed)
	case a.Trace || b.Trace:
		return "a traced run has no gated metrics"
	}
	return ""
}

// worseBy is how much worse b is than a, as a share of a, in the
// direction the metric counts as worse (negative when b is better).
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == higher {
		return (a - b) / a
	}
	return (b - a) / a
}

func compareReports(a, b *report, w io.Writer) (worse int) {
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		if _, ok := b.Workloads[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-30s %-18s %14s %14s %8s %7s\n", "workload", "metric", "a", "b", "worse", "bound")
	for _, name := range names {
		for _, d := range endToEnd {
			av, bv := a.Workloads[name].Metrics[d.Name].Value, b.Workloads[name].Metrics[d.Name].Value
			by := worseBy(d, av, bv)
			mark := ""
			if by > d.Bound {
				mark = "  REGRESSION"
				worse++
			}
			fmt.Fprintf(w, "%-30s %-18s %14.4f %14.4f %+7.2f%% %6.1f%%%s\n", name, d.Name, av, bv, 100*by, 100*d.Bound, mark)
		}
	}
	return worse
}
