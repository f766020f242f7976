package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"github.com/minos-ddp/minos/internal/loadgen"
	"github.com/minos-ddp/minos/internal/obs"
)

// options is the shape of one run. The flags fill it; -smoke and the
// tests shrink it.
type options struct {
	seed     int64
	rounds   int           // measured rounds of the end-to-end run
	roundDur time.Duration // length of each
	warmDur  time.Duration // the discarded first round
	setups   int           // how many times the end-to-end run sets up
	records  int
	probes   int // batches per probe
	shrink   int // divides the probes' call counts
	traceOut string
	gate     *quietGate // nil: never wait for a quiet box
}

// result is one workload's outcome: the contract's four keys, and the
// per-round values behind each median.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]value     `json:"metrics"`
	Rounds    map[string][]float64 `json:"rounds,omitempty"`
	Errors    []string             `json:"errors,omitempty"`
}

// fail records a failed correctness check. It counts as one failed
// operation, so that ok_frac leaves 1 whenever correct is false.
func (r *result) fail(err error) {
	if err != nil {
		r.Errors = append(r.Errors, err.Error())
		r.Failed++
	}
}

// measured runs n timed rounds on b, checks each round's accounting and
// appends each round's values to res.Rounds through per (nil: none). It returns the
// rounds' OK operations, OK writes and measured time.
func measured(b *bench, res *result, n int, dur time.Duration, per func(*roundResult, map[string][]float64)) (ops, writes int64, window time.Duration) {
	for i := 0; i < n; i++ {
		from := now()
		if b.spans != nil {
			b.spans.round.Store(b.spans.ids.Add(1))
		}
		r := b.round(dur)
		if b.spans != nil {
			b.spans.store(span{ID: b.spans.round.Load(), Parent: b.spans.root, Name: "round", Start: from, End: now()})
		}
		res.fail(checkAccounting(r))
		res.Attempted += r.attempted()
		res.Failed += r.failed()
		ops += r.ok
		writes += r.writes
		window += time.Duration(r.windowNs)
		if per != nil {
			per(r, res.Rounds)
		}
	}
	return ops, writes, window
}

// warm runs the discarded first round. Its numbers are dropped; a
// failure in it still fails the run.
func warm(b *bench, res *result, dur time.Duration) {
	r := b.round(dur)
	res.fail(checkAccounting(r))
	if f := r.failed(); f > 0 {
		res.fail(fmt.Errorf("warm-up: %d of %d operations failed", f, r.attempted()))
	}
}

func endToEndRound(r *roundResult, rounds map[string][]float64) {
	add := func(name string, v float64) { rounds[name] = append(rounds[name], v) }
	add("write_p50_us", percentile(r.wr, 50)/1e3)
	add("write_p90_us", percentile(r.wr, 90)/1e3)
	add("read_p50_us", percentile(r.rd, 50)/r.readPer/1e3)
	add("ops_s", float64(r.ok)/(float64(r.windowNs)/1e9))
	add("cpu_us_per_op", float64(r.cpuNs)/1e3/float64(max(r.ok, 1)))
}

// runEndToEnd is the untraced run of one workload: it sets up (several
// times, for a steady setup_s), warms up, measures the rounds, checks
// the replicas and reports every end-to-end metric.
func runEndToEnd(sp spec, opt options) (*result, error) {
	res := &result{Metrics: map[string]value{}, Rounds: map[string][]float64{}}
	var setups []float64
	var b *bench
	var up time.Duration
	for i := 0; i < opt.setups; i++ {
		from := time.Now()
		var err error
		if b, err = setUp(sp, opt, loadgen.Observe{}, sp.offload, nil); err != nil {
			return nil, err
		}
		up = time.Since(from)
		if i < opt.setups-1 {
			from = time.Now()
			b.close()
			setups = append(setups, (up + time.Since(from)).Seconds())
			runtime.GC()
		}
	}

	warm(b, res, opt.warmDur)
	heap0 := liveHeap()
	_, writes, _ := measured(b, res, opt.rounds, opt.roundDur, endToEndRound)
	heap1 := liveHeap()
	res.fail(checkReplicas(b.lc.Nodes, b.writtenKeys(), opt.seed))

	from := time.Now()
	b.close()
	setups = append(setups, (up + time.Since(from)).Seconds())

	for name, v := range medianOfRounds(res.Rounds) {
		res.Metrics[name] = value{Value: v}
	}
	res.Metrics["heap_b_per_write"] = value{Value: (float64(heap1) - float64(heap0)) / float64(max(writes, 1))}
	res.Metrics["ok_frac"] = value{Value: float64(res.Attempted-res.Failed) / float64(max(res.Attempted, 1))}
	res.Metrics["setup_s"] = value{Value: median(setups)}
	res.Rounds["setup_s"] = setups
	res.finish(endToEnd)
	return res, nil
}

// finish stamps the units on and derives Correct.
func (r *result) finish(defs []metricDef) {
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		if !ok {
			r.Errors = append(r.Errors, "metric "+d.Name+" was not measured")
		}
		v.Unit = d.Unit
		r.Metrics[d.Name] = v
	}
	r.Correct = r.Failed == 0 && len(r.Errors) == 0 && r.Attempted > 0
}

func tracedRound(r *roundResult, rounds map[string][]float64) {
	add := func(name string, v float64) { rounds[name] = append(rounds[name], v) }
	add("driver.late_p50_us", percentile(r.late, 50)/1e3)
	add("driver.late_p99_us", percentile(r.late, 99)/1e3)
	add("driver.write_p99_us", percentile(r.wr, 99)/1e3)
	add("driver.write_p999_us", percentile(r.wr, 99.9)/1e3)
	add("driver.read_p90_us", percentile(r.rd, 90)/r.readPer/1e3)
	add("driver.read_p99_us", percentile(r.rd, 99)/r.readPer/1e3)
	add("write_p50_us", percentile(r.wr, 50)/1e3)
	// The share of the round the senders spent waiting for a free slot.
	add("driver.window_wait_frac", float64(r.waitNs)/float64(clientConns*max(r.windowNs, 1)))
}

// runTraced is the separate traced run that yields the per-layer
// metrics. It measures three clusters of the workload: one untraced (the
// base of the tracing overhead), one with the node tracer and the
// driver's spans on (counters, phases, driver percentiles), and one
// traced with the soft-NIC engine toggled (so that every workload shows
// the engine on and off); then the probes.
func runTraced(sp spec, opt options) (*result, error) {
	res := &result{Metrics: map[string]value{}, Rounds: map[string][]float64{}}
	spans := newSpanLog(1 << 19)
	begin := now()
	nBase, nTraced, nToggled := 2, max(opt.rounds-3, 1), 2
	if opt.rounds < 4 {
		nBase, nToggled = 1, 1
	}
	observe := loadgen.Observe{Trace: true, TraceSample: spanEvery, TraceCapacity: 1 << 17}
	m := map[string]float64{}

	opsPerSec := func(ob loadgen.Observe, offloadOn bool, n int, then func(*bench)) (float64, error) {
		b, err := setUp(sp, opt, ob, offloadOn, nil)
		if err != nil {
			return 0, err
		}
		warm(b, res, opt.warmDur)
		ops, _, window := measured(b, res, n, opt.roundDur, nil)
		b.close()
		if then != nil {
			then(b) // the tracer's spans are read once every node goroutine has ended
		}
		runtime.GC()
		return float64(ops) / window.Seconds(), nil
	}

	untraced, err := opsPerSec(loadgen.Observe{}, sp.offload, nBase, nil)
	if err != nil {
		return nil, err
	}

	b, err := setUp(sp, opt, observe, sp.offload, spans)
	if err != nil {
		return nil, err
	}
	warm(b, res, opt.warmDur)
	c0, p0 := collect(b.lc), readProc()
	ops, writes, window := measured(b, res, nTraced, opt.roundDur, tracedRound)
	c1, p1 := collect(b.lc), readProc()
	res.fail(checkReplicas(b.lc.Nodes, b.writtenKeys(), opt.seed))
	m["proc.goroutines"] = float64(runtime.NumGoroutine())
	m["proc.heap_live_mb"] = float64(liveHeap()) / (1 << 20)
	b.close()
	nodeSpans := b.lc.Spans() // read once every node goroutine has ended

	traced := float64(ops) / window.Seconds()
	for name, v := range counterMetrics(c1.since(c0), c1.max, ops, writes) {
		m[name] = v
	}
	for name, v := range medianOfRounds(res.Rounds) {
		m[name] = v
	}
	phases := phaseMeans(nodeSpans)
	m["obs.trace_overhead_frac"] = 1 - traced/untraced
	m["proc.allocs_per_op"] = float64(p1.mallocs-p0.mallocs) / float64(max(ops, 1))
	m["proc.gc_cycles"] = float64(p1.gcs - p0.gcs)
	m["proc.gc_pause_ms"] = float64(p1.pauseNs-p0.pauseNs) / 1e6

	// The toggled cluster: its counters and NIC phases stand in where
	// the workload's own configuration has the engine off.
	toggled, err := opsPerSec(observe, !sp.offload, nToggled, func(tb *bench) {
		if sp.offload {
			return
		}
		c := collect(tb.lc) // since the toggled cluster started, warm-up included
		for name, v := range counterMetrics(c.sum, c.max, 1, 1) {
			if strings.HasPrefix(name, "offload.") {
				m[name] = v
			}
		}
		for name, v := range phaseMeans(tb.lc.Spans()) {
			if _, ok := phases[name]; !ok {
				phases[name] = v
			}
		}
	})
	if err != nil {
		return nil, err
	}
	m["offload.on_ops_s"], m["offload.off_ops_s"] = traced, toggled
	if !sp.offload {
		m["offload.on_ops_s"], m["offload.off_ops_s"] = toggled, traced
	}
	for _, p := range obs.Phases() {
		name := "obs." + p.String() + "_us"
		m[name] = phases[name] // a phase the model never enters took no time
	}

	pr := &prober{sp: sp, seed: opt.seed, records: opt.records, batches: opt.probes, shrink: opt.shrink,
		spans: spans, out: m}
	if err := pr.all(); err != nil {
		return nil, err
	}
	// What the client path adds to one caller's write on an idle cluster:
	// the client hop, the frontend queue and contention.
	m["node.hop_us"] = m["write_p50_us"] - m["node.write_serial_us"]

	spans.store(span{ID: spans.root, Name: "workload." + sp.name, Start: begin, End: now()})
	if opt.traceOut != "" {
		if err := spans.write(opt.traceOut, sp.name, nodeSpans); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	for _, d := range perLayer {
		if v, ok := m[d.Name]; ok {
			res.Metrics[d.Name] = value{Value: v}
		}
	}
	res.finish(perLayer)
	return res, nil
}

// settle gives the next workload a process as close to a fresh one as a
// running process gets: the previous cluster is closed, its memory
// collected and returned.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}
