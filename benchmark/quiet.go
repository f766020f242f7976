package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

var (
	// calibrateWords is 32 MB for calibrate's scattered loads, past any
	// cache a vCPU has to itself; written once, so that every page is
	// its own. Built on first use: most invocations never calibrate.
	calibrateWords = sync.OnceValue(func() []uint64 {
		w := make([]uint64, 4<<20)
		for i := range w {
			w[i] = uint64(i) * 0x9E3779B97F4A7C15
		}
		return w
	})
	// calibrateSink keeps the compiler from deleting calibrate's loops.
	calibrateSink atomic.Uint64
)

// This box's two vCPUs do not run at one speed. A fixed computation takes
// 2.2 ms when they have been busy for a second or more, 3.3 ms or 4.5 ms
// when they have recently been idle or half idle, and 6 ms after a
// stretch of many short sleeps; now and then something outside the VM
// slows them for a minute as well. Identical code then costs up to twice
// the CPU per operation, and three consecutive 25-second runs at another
// speed are enough to double the spread of a set of ten. Nothing in the
// program under test can cause or cure that, so the benchmark looks before
// it measures: ahead of every round it times a fixed computation that
// shares no code with the repository, compares it with the fastest it has
// ever seen in this checkout, and repeats it (which is also what brings
// the vCPUs back up to speed) until the box is about as fast as that, or
// a budget is spent. What it saw and how long it took are printed at the
// end of the run.

const (
	// quietFactor is how much slower than the best ever seen the fixed
	// computation may run for a round to start. Minutes at full speed
	// differ by up to ~1.2x; the next speed down is 1.5x.
	quietFactor = 1.35
	// A run spends at most quietRunCap waiting for the box, and all runs
	// in one checkout together at most quietTotalCap: a box that has
	// simply become slower for good costs a bounded time once, then
	// nothing.
	quietRunCap   = 30 * time.Second
	quietTotalCap = 400 * time.Second
)

// calibrate times a fixed computation run on every processor at once and
// returns the median of 9 passes of a few milliseconds each: long enough
// in all to span the host's time slices, so that a vCPU that is only run
// part of the time shows. Each pass is half arithmetic on four independent
// chains (it slows when a hyperthread sibling competes for the core's
// ports) and half dependent loads scattered over calibrateWords (it slows
// when a neighbour competes for the shared cache and memory).
func calibrate() time.Duration {
	procs := runtime.GOMAXPROCS(0)
	words := calibrateWords()
	passes := make([]time.Duration, 9)
	for i := range passes {
		from := time.Now()
		var wg sync.WaitGroup
		for p := 0; p < procs; p++ {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				a, b, c, d := seed, seed+1, seed+2, seed+3
				for n := 0; n < 1_000_000; n++ {
					a ^= a << 13
					b ^= b << 13
					c ^= c << 13
					d ^= d << 13
					a ^= a >> 7
					b ^= b >> 7
					c ^= c >> 7
					d ^= d >> 7
				}
				at := (a ^ b ^ c ^ d) % uint64(len(words))
				for n := 0; n < 40_000; n++ {
					at = (words[at] + at*0x9E3779B97F4A7C15 + 1) % uint64(len(words))
				}
				calibrateSink.Store(at)
			}(uint64(p)*977 + 0x9E3779B97F4A7C15)
		}
		wg.Wait()
		passes[i] = time.Since(from)
	}
	slices.Sort(passes)
	return passes[len(passes)/2]
}

// quietState is what the gate remembers between runs in one checkout.
type quietState struct {
	BestNs  int64   `json:"best_ns"`
	WaitedS float64 `json:"waited_s"`
}

// quietGate holds rounds back while the box is slow.
type quietGate struct {
	path     string
	runCap   time.Duration
	totalCap time.Duration
	state    quietState
	waited   time.Duration // by this run
	worst    float64       // the slowest calibration a round started at, over the best
}

// newQuietGate loads the checkout's state from dir; a missing or
// unreadable file starts afresh.
func newQuietGate(dir string) *quietGate {
	g := &quietGate{path: filepath.Join(dir, "quiet.json"), runCap: quietRunCap, totalCap: quietTotalCap}
	if raw, err := os.ReadFile(g.path); err == nil {
		_ = json.Unmarshal(raw, &g.state) // a damaged file starts afresh too
	}
	return g
}

// wait returns when the box is at speed or a budget is spent. A nil gate
// (the smoke preset) never waits.
func (g *quietGate) wait() {
	if g == nil {
		return
	}
	for {
		cur := calibrate()
		if g.state.BestNs == 0 || int64(cur) < g.state.BestNs {
			g.state.BestNs = int64(cur)
		}
		ratio := float64(cur) / float64(g.state.BestNs)
		spent := time.Duration(g.state.WaitedS * float64(time.Second))
		if ratio <= quietFactor || g.waited >= g.runCap || spent >= g.totalCap {
			g.worst = max(g.worst, ratio)
			return
		}
		// 9 passes of about cur each went by.
		g.waited += 9 * cur
		g.state.WaitedS += (9 * cur).Seconds()
	}
}

// save keeps the state for the checkout's next run. Failing to is not an
// error: the next run then learns the box's speed again.
func (g *quietGate) save() {
	if g == nil {
		return
	}
	raw, err := json.Marshal(g.state)
	if err != nil {
		return
	}
	if os.MkdirAll(filepath.Dir(g.path), 0o755) == nil {
		_ = os.WriteFile(g.path, raw, 0o644)
	}
}
