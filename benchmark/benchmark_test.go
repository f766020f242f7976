package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/loadgen"
)

// contract is BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	return c
}

// BENCHMARK.json is written by hand; the tables in metrics.go and
// workloads.go are what the program reports. They must say the same.
func TestContractMatchesTables(t *testing.T) {
	c := readContract(t)
	if !reflect.DeepEqual(c.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from metrics.go:\n json %+v\n code %+v", c.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(c.PerLayer, perLayer) {
		t.Errorf("per_layer differs from metrics.go:\n json %+v\n code %+v", c.PerLayer, perLayer)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, workloads.go %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: json %+v, code %q: %q", i, c.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// smoke runs the benchmark in-process with the smoke preset and returns
// its report.
func smoke(t *testing.T, extra ...string) *report {
	t.Helper()
	dir := t.TempDir()
	out := filepath.Join(dir, "report.json")
	args := append([]string{"-smoke", "-seed", "7", "-out", out, "-trace-out", filepath.Join(dir, "trace.json")}, extra...)
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run %v: exit %d\n%s%s", args, code, stdout.String(), stderr.String())
	}
	rep, err := readReport(out)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// Every metric BENCHMARK.json names is emitted, finite, by every
// workload, and nothing else is.
func checkEmitted(t *testing.T, rep *report, defs []metricDef) {
	t.Helper()
	for _, w := range workloads {
		res, ok := rep.Workloads[w.name]
		if !ok {
			t.Errorf("%s: no result", w.name)
			continue
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("%s: correct=%t attempted=%d failed=%d errors=%v", w.name, res.Correct, res.Attempted, res.Failed, res.Errors)
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("%s: %d metrics emitted, %d defined", w.name, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			v, ok := res.Metrics[d.Name]
			switch {
			case !ok:
				t.Errorf("%s: %s not emitted", w.name, d.Name)
			case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
				t.Errorf("%s: %s = %v", w.name, d.Name, v.Value)
			case v.Unit != d.Unit:
				t.Errorf("%s: %s has unit %q, want %q", w.name, d.Name, v.Unit, d.Unit)
			}
		}
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	rep := smoke(t)
	checkEmitted(t, rep, endToEnd)
	for name, res := range rep.Workloads {
		for _, d := range endToEnd {
			if res.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: %s = %v, an end-to-end metric is never 0", name, d.Name, res.Metrics[d.Name].Value)
			}
		}
	}
}

func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("the traced smoke run takes several seconds")
	}
	dir := t.TempDir()
	rep := smoke(t, "-trace", "1", "-trace-out", filepath.Join(dir, "spans.json"))
	checkEmitted(t, rep, perLayer)

	raw, err := os.ReadFile(filepath.Join(dir, "spans.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	ids := map[uint64]bool{}
	names := map[string]int{}
	for _, s := range file.Spans {
		ids[s.ID] = true
		names[strings.SplitN(s.Name, ".", 2)[0]]++
	}
	for _, s := range file.Spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Fatalf("span %d (%s) has unknown parent %d", s.ID, s.Name, s.Parent)
		}
		if s.End < s.Start {
			t.Fatalf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
	}
	for _, want := range []string{"workload", "round", "op", "driver", "cluster", "probe", "batch"} {
		if names[want] == 0 {
			t.Errorf("no %q span in the trace file (have %v)", want, names)
		}
	}
}

// The driver ends with the contract's one line when it runs one workload.
func TestContractLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "ring_renf_reader_writer", "--seed", "3", "--seconds", "1", "--trace", "0", "-smoke"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	if len(got) != 4 {
		t.Errorf("last line has keys %v, want exactly correct, attempted, failed, metrics", got)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := got[k]; !ok {
			t.Errorf("last line lacks %q", k)
		}
	}
}

// The same seed gives the same arrivals and keys; another seed does not.
func TestSameSeedSameInputs(t *testing.T) {
	gen := func(sp spec, seed int64) []opInput {
		in, err := newInputs(sp, seed, preloadRecords, 1)
		if err != nil {
			t.Fatal(err)
		}
		in.generate(50 * time.Millisecond)
		first := append([]opInput(nil), in.ops...)
		in.generate(50 * time.Millisecond) // the next round continues the streams
		return append(first, in.ops...)
	}
	for _, sp := range workloads[:3] {
		a, b, c := gen(sp, 11), gen(sp, 11), gen(sp, 12)
		if len(a) < 100 {
			t.Fatalf("%s: only %d operations generated", sp.name, len(a))
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different inputs", sp.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds gave the same inputs", sp.name)
		}
	}
	sp := workloads[3]
	r1, w1 := newDirectKeys(workloadConfig(sp, preloadRecords), 11)
	r2, w2 := newDirectKeys(workloadConfig(sp, preloadRecords), 11)
	if !reflect.DeepEqual(r1, r2) || !reflect.DeepEqual(w1, w2) {
		t.Errorf("%s: the same seed gave different key arrays", sp.name)
	}
	if reflect.DeepEqual(r1, w1[:len(r1)]) {
		t.Errorf("%s: the reader and the writer walk the same key array", sp.name)
	}
}

func TestPercentile(t *testing.T) {
	xs := []int64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {50, 30}, {100, 50}, {25, 20}, {90, 46}, {12.5, 15}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := percentile([]int64{7}, 99.9); got != 7 {
		t.Errorf("percentile of one sample = %v", got)
	}
}

func TestMedianOfRounds(t *testing.T) {
	in := []float64{5, 1, 100, 3, 4}
	if got := median(in); got != 4 {
		t.Errorf("median = %v, want 4", got)
	}
	if !reflect.DeepEqual(in, []float64{5, 1, 100, 3, 4}) {
		t.Error("median reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	// One disturbed round of seven does not move the reported value.
	calm := map[string][]float64{"write_p90_us": {100, 101, 99, 100, 102, 98, 100}}
	hit := map[string][]float64{"write_p90_us": {100, 101, 99, 3500, 102, 98, 100}}
	if a, b := medianOfRounds(calm)["write_p90_us"], medianOfRounds(hit)["write_p90_us"]; math.Abs(a-b) > 1 {
		t.Errorf("one disturbed round moved the median from %v to %v", a, b)
	}
}

func TestCompare(t *testing.T) {
	mk := func(ops, p50 float64) *report {
		res := &result{Correct: true, Metrics: map[string]value{}}
		for _, d := range endToEnd {
			res.Metrics[d.Name] = value{Value: 1, Unit: d.Unit}
		}
		res.Metrics["ops_s"] = value{Value: ops, Unit: "1/s"}
		res.Metrics["write_p50_us"] = value{Value: p50, Unit: "us"}
		return &report{Header: header{NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", Seed: 1},
			Workloads: map[string]*result{"tcp_synch_closed64": res}}
	}
	var sink bytes.Buffer
	base := mk(1000, 50)
	if n := compareReports(base, mk(1000, 50), &sink); n != 0 {
		t.Errorf("identical reports: %d regressions", n)
	}
	if n := compareReports(base, mk(2000, 25), &sink); n != 0 {
		t.Errorf("a better report: %d regressions", n)
	}
	if n := compareReports(base, mk(990, 52), &sink); n != 0 {
		t.Errorf("inside the bounds: %d regressions", n)
	}
	if n := compareReports(base, mk(600, 50), &sink); n != 1 {
		t.Errorf("ops_s down two fifths: %d regressions, want 1", n)
	}
	if n := compareReports(base, mk(600, 80), &sink); n != 2 {
		t.Errorf("ops_s down and write_p50_us up: %d regressions, want 2", n)
	}
	if !strings.Contains(sink.String(), "REGRESSION") {
		t.Error("a regression is not marked in the table")
	}

	// Through the flag, with files: exit codes and the refusal.
	dir := t.TempDir()
	write := func(name string, r *report) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slow := write("a.json", base), write("same.json", mk(1001, 50)), write("slow.json", mk(500, 50))
	other := mk(1000, 50)
	other.Header.NProc = 64
	elsewhere := write("elsewhere.json", other)
	for _, c := range []struct {
		b    string
		want int
	}{{same, 0}, {slow, 1}, {elsewhere, 2}} {
		var stdout, stderr bytes.Buffer
		if got := run([]string{"-compare", a, c.b}, &stdout, &stderr); got != c.want {
			t.Errorf("-compare a %s: exit %d, want %d\n%s%s", filepath.Base(c.b), got, c.want, stdout.String(), stderr.String())
		}
	}
	for _, h := range []header{{NProc: 4}, {GOMAXPROCS: 4}, {GoVersion: "go1.25"}, {Seed: 2}, {Trace: true}} {
		if incomparable(header{}, h) == "" {
			t.Errorf("headers differing as %+v compare", h)
		}
	}
}

// The replica check passes on a cluster the driver wrote to, and fails
// once one replica holds something else.
func TestReplicaCheckCatchesCorruption(t *testing.T) {
	sp, _ := findWorkload("ring_strict_offload_closed16")
	b, err := setUp(sp, options{seed: 5, records: 2000}, loadgen.Observe{}, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	r := b.round(100 * time.Millisecond)
	if err := checkAccounting(r); err != nil {
		t.Fatal(err)
	}
	written := b.writtenKeys()
	if err := checkReplicas(b.lc.Nodes, written, 5); err != nil {
		t.Fatalf("healthy cluster: %v", err)
	}

	r.ok-- // an operation that ended in no counted way
	if checkAccounting(r) == nil {
		t.Error("accounting check passed with an operation unaccounted for")
	}

	keys := []ddp.Key{ddp.Key(written[0])}
	rec := b.lc.Nodes[3].Store().Get(keys[0])
	rec.Lock()
	rec.SetValue(bytes.Repeat([]byte{0xEE}, valueSize))
	rec.Unlock()
	if err := replicasAgree(b.lc.Nodes, keys, 5); err == nil {
		t.Error("replica check passed with node 3 holding a different value")
	} else if !strings.Contains(err.Error(), "node 3") {
		t.Errorf("replica check blamed the wrong node: %v", err)
	}
}

// The gate lets a round start at once on a box at speed, gives up when a
// budget is spent, and remembers both between runs.
func TestQuietGate(t *testing.T) {
	var none *quietGate
	none.wait() // the smoke preset: no gate, no wait
	none.save()

	dir := t.TempDir()
	g := newQuietGate(dir)
	g.wait()
	if g.state.BestNs <= 0 || g.waited != 0 || g.worst != 1 {
		t.Errorf("first look at the box: best %d ns, waited %v, worst %v; want a best, no wait, 1", g.state.BestNs, g.waited, g.worst)
	}
	g.save()

	// A checkout that once saw an impossibly fast box: every look is slow.
	slow := newQuietGate(dir)
	if slow.state.BestNs != g.state.BestNs {
		t.Fatalf("reloaded best %d, saved %d", slow.state.BestNs, g.state.BestNs)
	}
	slow.state.BestNs = 1000
	slow.runCap = 50 * time.Millisecond
	from := time.Now()
	slow.wait()
	if took := time.Since(from); took < slow.runCap || took > 2*time.Second {
		t.Errorf("a slow box held the round for %v, want about the run's budget of %v", took, slow.runCap)
	}
	if slow.worst <= quietFactor {
		t.Errorf("the round started at %.2fx and was not marked as slow", slow.worst)
	}
	slow.save()

	// The budget over all runs is spent: no more waiting.
	spent := newQuietGate(dir)
	if spent.state.WaitedS <= 0 {
		t.Fatalf("the wait was not remembered: %+v", spent.state)
	}
	spent.totalCap = time.Duration(spent.state.WaitedS * float64(time.Second))
	from = time.Now()
	spent.wait()
	if took := time.Since(from); took > 500*time.Millisecond || spent.waited != 0 {
		t.Errorf("with the checkout's budget spent the gate still waited %v", took)
	}
}
