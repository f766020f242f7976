package loadgen

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/obs"
	"github.com/minos-ddp/minos/internal/stats"
	"github.com/minos-ddp/minos/internal/transport"
	"github.com/minos-ddp/minos/internal/workload"
)

// Result carries the measurements of one open-loop run.
//
// The accounting identity every run satisfies:
//
//	Offered = Completed + ShedWindow + ShedNode + ShedSend + Errs + Abandoned
//
// Nothing is dropped from the sample set: an arrival the engine could
// not issue, a request the node refused, and a response that never came
// are all counted — the opposite of a closed loop, which simply would
// not have generated them.
type Result struct {
	Model   ddp.Model
	Fabric  string
	Arrival string
	Rate    float64 // offered ops/s, aggregate
	Clients int
	Conns   int

	Offered   int64 // arrivals scheduled inside the issue window
	Completed int64 // StatusOK (and a missing key's StatusNotFound) responses received
	// ShedWindow counts arrivals abandoned unissued after waiting a
	// full drain grace for a window slot — only a cluster that stopped
	// responding entirely produces them. A merely *overloaded* cluster
	// instead delays the dispatcher, and that delay is charged to every
	// affected op's intended-time latency.
	ShedWindow int64
	ShedNode   int64 // StatusShed responses (node admission window full)
	ShedSend   int64 // transport send failures (never retried)
	Errs       int64 // StatusErr responses
	Abandoned  int64 // still in flight when the drain grace expired

	// Elapsed is the configured issue window; Throughput is Completed
	// over it (stragglers completing during the drain grace count, as
	// they were offered inside the window).
	Elapsed time.Duration

	// IntendedWrite/IntendedRead are the coordinated-omission-safe
	// latencies: completion minus *intended* arrival time, so an engine
	// or server running behind charges the full queueing delay to every
	// affected op. ServiceWrite/ServiceRead measure send-to-response
	// only — what a closed loop would have reported — kept for the
	// comparison, never for headline numbers.
	IntendedWrite stats.Report
	IntendedRead  stats.Report
	ServiceWrite  stats.Report
	ServiceRead   stats.Report

	// Obs is the cluster-side snapshot (node + transport instruments).
	Obs *obs.Snapshot
	// Spans holds trace spans when Observe.Trace was set.
	Spans []obs.Span
}

// Throughput returns completed operations per second of issue window.
func (r *Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Completed) / r.Elapsed.Seconds()
}

func (r *Result) String() string {
	return fmt.Sprintf("%v/%s %s@%.0f/s: %.0f op/s done, shed %d (win %d node %d send %d), err %d, abandoned %d | wr p99 %s p999 %s | rd p99 %s p999 %s",
		r.Model, r.Fabric, r.Arrival, r.Rate, r.Throughput(),
		r.ShedWindow+r.ShedNode+r.ShedSend, r.ShedWindow, r.ShedNode, r.ShedSend,
		r.Errs, r.Abandoned,
		stats.Ns(r.IntendedWrite.P99Ns), stats.Ns(r.IntendedWrite.P999Ns),
		stats.Ns(r.IntendedRead.P99Ns), stats.Ns(r.IntendedRead.P999Ns))
}

// slot kinds; a slot is one in-flight operation on a connection.
const (
	slotRead = iota
	slotWrite
	slotPersist
)

// conn is the engine-side state of one transport connection: the
// arrival schedule and op stream it runs, the bounded in-flight window
// (slot arrays plus a free-list channel), and the id range of the
// logical clients it multiplexes.
type conn struct {
	ep      transport.Transport
	sched   *Schedule
	gen     *workload.Generator
	pick    splitmix64 // logical-client picker
	clients int        // logical clients on this connection
	base    int        // first logical client id
	targets []ddp.NodeID

	free     chan int
	intended []int64
	sent     []int64
	kind     []uint8

	offered, shedWindow, shedSend int64
}

// engine aggregates the per-connection counters and the shared
// histograms (obs instruments are striped atomics — all connections
// observe into the same registry).
type engine struct {
	load   Load
	scoped bool // <Lin, Scope>: the workload's persist beats are sent
	reg    *obs.Registry
	start  time.Time

	intendedWr *obs.Histogram
	intendedRd *obs.Histogram
	serviceWr  *obs.Histogram
	serviceRd  *obs.Histogram

	completed *obs.Counter
	shedNode  *obs.Counter
	errs      *obs.Counter
}

// Run executes one open-loop measurement: bring the cluster up, Drive
// the scheduled arrivals over its client connections, and take the
// cluster's snapshot and spans.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	lc, err := StartCluster(cfg.Cluster, cfg.Observe, cfg.Offload, cfg.Load.Conns)
	if err != nil {
		return nil, err
	}
	defer lc.Close()

	if cfg.Load.PreloadRecords > 0 {
		value := make([]byte, cfg.Load.Workload.ValueSize)
		for _, nd := range lc.Nodes {
			nd.Store().Preload(cfg.Load.PreloadRecords, value)
		}
	}
	targets := make([]ddp.NodeID, len(lc.Nodes))
	for i := range targets {
		targets[i] = ddp.NodeID(i)
	}
	res, err := Drive(lc.ClientEps, targets, cfg.Cluster.Model, cfg.Load)
	if err != nil {
		return nil, err
	}
	res.Fabric = fabricName(cfg.Cluster.Fabric)
	res.Obs = lc.Collect()
	res.Spans = lc.Spans()
	return res, nil
}

// Drive issues load's scheduled arrivals over client endpoints already
// wired to a running cluster, one connection per endpoint (load.Conns
// is len(eps)), spreading each connection's logical clients over
// targets; it then drains and accounts. model decides whether the
// workload's persist beats are sent (<Lin, Scope> only). The endpoints
// stay open: the caller owns them, and fills Result's Fabric, Obs and
// Spans if it has them.
func Drive(eps []transport.Transport, targets []ddp.NodeID, model ddp.Model, load Load) (*Result, error) {
	if len(eps) == 0 || len(targets) == 0 {
		return nil, fmt.Errorf("loadgen: drive needs client endpoints and target nodes (got %d, %d)", len(eps), len(targets))
	}
	load.Conns = len(eps)
	load = load.withDefaults()

	e := &engine{load: load, scoped: model == ddp.LinScope, reg: obs.NewRegistry("loadgen")}
	e.intendedWr = e.reg.Histogram("intended_write_ns")
	e.intendedRd = e.reg.Histogram("intended_read_ns")
	e.serviceWr = e.reg.Histogram("service_write_ns")
	e.serviceRd = e.reg.Histogram("service_read_ns")
	e.completed = e.reg.Counter("completed")
	e.shedNode = e.reg.Counter("shed_node")
	e.errs = e.reg.Counter("errs")

	conns := make([]*conn, load.Conns)
	per := load.Clients / load.Conns
	for i := range conns {
		clients := per
		if i == len(conns)-1 {
			clients = load.Clients - per*(len(conns)-1)
		}
		seed := load.Seed + int64(i)*0x9E3779B9
		sched, err := NewSchedule(load.Arrival, load.Rate/float64(len(conns)), seed)
		if err != nil {
			return nil, err
		}
		c := &conn{
			ep:       eps[i],
			sched:    sched,
			gen:      workload.NewGenerator(load.Workload, seed+7919),
			pick:     splitmix64{state: uint64(seed) ^ 0xC0FFEE},
			clients:  clients,
			base:     i * per,
			targets:  targets,
			free:     make(chan int, load.Window),
			intended: make([]int64, load.Window),
			sent:     make([]int64, load.Window),
			kind:     make([]uint8, load.Window),
		}
		for s := 0; s < load.Window; s++ {
			c.free <- s
		}
		conns[i] = c
	}

	// Receivers drain responses until stopped; they must outlive the
	// dispatchers by the drain grace.
	var rxWg, txWg sync.WaitGroup
	stop := make(chan struct{})
	e.start = time.Now()
	for _, c := range conns {
		rxWg.Add(1)
		go func(c *conn) {
			defer rxWg.Done()
			e.receiver(c, stop)
		}(c)
		txWg.Add(1)
		go func(c *conn) {
			defer txWg.Done()
			e.dispatcher(c)
		}(c)
	}
	txWg.Wait()

	// Drain: give in-flight operations DrainGrace to complete, checking
	// the free lists; whatever is still out afterwards is abandoned.
	deadline := time.Now().Add(load.DrainGrace)
	for time.Now().Before(deadline) {
		allFree := true
		for _, c := range conns {
			if len(c.free) != cap(c.free) {
				allFree = false
				break
			}
		}
		if allFree {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Stop the receivers, then read the final counts (the receivers own
	// their slots until then).
	close(stop)
	rxWg.Wait()
	res := &Result{
		Model:   model,
		Arrival: load.Arrival,
		Rate:    load.Rate,
		Clients: load.Clients,
		Conns:   load.Conns,
		Elapsed: load.Duration,
	}
	for _, c := range conns {
		res.Offered += c.offered
		res.ShedWindow += c.shedWindow
		res.ShedSend += c.shedSend
	}
	res.Completed = e.completed.Load()
	res.ShedNode = e.shedNode.Load()
	res.Errs = e.errs.Load()
	res.Abandoned = res.Offered - res.Completed - res.ShedWindow - res.ShedNode - res.ShedSend - res.Errs

	snap := e.reg.Snapshot()
	res.IntendedWrite = stats.ReportFromHistogram(snap.Histogram("loadgen.intended_write_ns"))
	res.IntendedRead = stats.ReportFromHistogram(snap.Histogram("loadgen.intended_read_ns"))
	res.ServiceWrite = stats.ReportFromHistogram(snap.Histogram("loadgen.service_write_ns"))
	res.ServiceRead = stats.ReportFromHistogram(snap.Histogram("loadgen.service_read_ns"))
	return res, nil
}

func fabricName(f string) string {
	if f == "" {
		return "mem"
	}
	return f
}

// dispatcher runs one connection's open loop: walk the arrival
// schedule, pace to each intended instant, and issue the operation.
// A full in-flight window blocks the dispatcher — but the operation's
// measurement origin stays its *intended* arrival time, so every
// microsecond spent waiting for a slot (i.e., for the overloaded
// cluster to answer something) is charged as latency. This is the
// wrk2-style discipline: lateness is charged, never dropped, and the
// sample set never shrinks because the server got slow — the exact
// coordinated-omission bug closed loops have.
func (e *engine) dispatcher(c *conn) {
	durNs := e.load.Duration.Nanoseconds()
	value := make([]byte, e.load.Workload.ValueSize)
	stall := time.NewTimer(time.Hour)
	stall.Stop()
	defer stall.Stop()
	for {
		at := c.sched.Next()
		if at > durNs {
			return
		}
		c.offered++

		// Pace: sleep toward the intended instant, yielding for the
		// last stretch. Oversleep is charged as latency (the intended
		// time, not the send time, is the measurement origin).
		for {
			d := at - time.Since(e.start).Nanoseconds()
			if d <= 0 {
				break
			}
			if d > int64(200*time.Microsecond) {
				time.Sleep(time.Duration(d) - 100*time.Microsecond)
			} else {
				runtime.Gosched()
			}
		}

		op := c.gen.Next()
		kind := uint8(slotWrite)
		cop := transport.OpClientWrite
		switch op.Kind {
		case workload.OpRead:
			kind, cop = slotRead, transport.OpClientRead
		case workload.OpPersist:
			if !e.scoped {
				// Non-scoped models persist every write inline; the
				// workload's persist beats are vacuous for them.
				continue
			}
			kind, cop = slotPersist, transport.OpClientPersist
		}

		var slot int
		select {
		case slot = <-c.free:
		default:
			// Window full: wait for a slot. The wait is bounded only by
			// the drain grace — a cluster that answers *nothing* for
			// that long is dead, and those arrivals are shed explicitly
			// rather than hanging the run.
			stall.Reset(e.load.DrainGrace)
			select {
			case slot = <-c.free:
				if !stall.Stop() {
					<-stall.C
				}
			case <-stall.C:
				c.shedWindow++
				continue
			}
		}

		// The logical client this arrival belongs to; its home node is
		// stable so per-client streams stay FIFO at one frontend.
		local := int(c.pick.next() % uint64(c.clients))
		target := c.targets[(c.base+local)%len(c.targets)]

		req := transport.ClientRequest{Op: cop, Key: ddp.Key(op.Key)}
		if cop == transport.OpClientWrite {
			// Send is done with the bytes when it returns; the buffer
			// is reused across sends.
			req.Value = value
		}
		c.intended[slot] = at
		c.sent[slot] = time.Since(e.start).Nanoseconds()
		c.kind[slot] = kind
		err := c.ep.Send(target, transport.Frame{
			Kind:   transport.FrameClientRequest,
			Client: uint64(slot)<<32 | uint64(c.base+local),
			Req:    req,
		})
		if err != nil {
			c.shedSend++
			c.free <- slot
		}
	}
}

// receiver demultiplexes one connection's responses back to their
// slots by the echoed client id and records both latency views, until
// stop closes or the endpoint does.
func (e *engine) receiver(c *conn, stop <-chan struct{}) {
	rx := c.ep.Recv()
	for {
		var f transport.Frame
		ok := true
		select {
		case <-stop:
			return
		case f, ok = <-rx:
		}
		if !ok {
			return
		}
		if f.Kind != transport.FrameClientResponse {
			continue
		}
		slot := int(f.Client >> 32)
		if slot < 0 || slot >= len(c.intended) {
			continue
		}
		now := time.Since(e.start).Nanoseconds()
		switch f.Resp.Status {
		case transport.StatusOK, transport.StatusNotFound:
			e.completed.Add(1)
			if c.kind[slot] == slotRead {
				e.intendedRd.Observe(now - c.intended[slot])
				e.serviceRd.Observe(now - c.sent[slot])
			} else {
				e.intendedWr.Observe(now - c.intended[slot])
				e.serviceWr.Observe(now - c.sent[slot])
			}
		case transport.StatusShed:
			e.shedNode.Add(1)
		default:
			e.errs.Add(1)
		}
		c.free <- slot
	}
}
