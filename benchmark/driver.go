package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/loadgen"
	"github.com/minos-ddp/minos/internal/node"
	"github.com/minos-ddp/minos/internal/transport"
	"github.com/minos-ddp/minos/internal/workload"
)

// The driver is the benchmark's own load generator: it owns the pacing,
// the in-flight windows and every clock read, so that a change to
// internal/loadgen cannot move a number. It takes only the cluster
// bring-up, the seeded arrival schedule and the seeded key generator
// from the repository.

const (
	// drainGrace is how long a round waits for outstanding requests
	// before it counts them as abandoned. Only a cluster that stopped
	// answering produces any.
	drainGrace = 5 * time.Second
	// spanEvery is the share of driver operations the traced run keeps
	// as spans, the same 1 in 8 the node tracer samples.
	spanEvery = 8
	// readBatch is how many direct reads share one pair of clock reads:
	// a read takes ~0.1 us, a clock read a fifth of that.
	readBatch = 64
	// The direct callers cycle over pre-generated key arrays (powers of
	// two). The reader's is short on purpose: the ~1.5k distinct records
	// behind 4096 zipfian draws stay in the processor's cache, so the
	// read loop is bound by the read path's instructions. Over 65536
	// draws it is bound by DRAM, and on this shared box its speed then
	// follows the neighbours' memory traffic (2.4M to 3.4M reads/s from
	// one minute to the next, against 3.3M to 3.7M with the short array).
	readerKeys = 1 << 12
	writerKeys = 1 << 16
	// sampleCap pre-sizes a latency sample buffer so that a round's
	// appends do not allocate inside the timed window.
	sampleCap = 1 << 18
)

// opInput is one generated operation: everything the program receives.
type opInput struct {
	at     int64 // paceOpen: intended send time, ns from the round's start
	key    uint64
	client uint32 // logical client; its home node is client % nodes
	write  bool
}

// tally is what one driver goroutine pair (or one direct caller) saw in
// one round. The sender writes the first group, the receiver the
// second; the round reads both after its drain.
type tally struct {
	sent     int64
	sendErr  int64
	late     []int64 // ns from due to actually sent
	windowNs int64   // ns the sender waited for a free slot

	ok      int64
	shed    int64
	errs    int64
	badRead int64   // OK reads that did not return valueSize bytes
	wr      []int64 // write latency, ns
	rd      []int64 // read latency, ns (per readBatch reads when direct)
}

func newTally() *tally {
	return &tally{
		late: make([]int64, 0, sampleCap),
		wr:   make([]int64, 0, sampleCap),
		rd:   make([]int64, 0, sampleCap),
	}
}

func (t *tally) reset() {
	*t = tally{late: t.late[:0], wr: t.wr[:0], rd: t.rd[:0]}
}

// inputs generates one connection's operations from the seed: the arrival
// schedule (open pacing only), the key and read/write stream, and the
// logical client each operation belongs to.
type inputs struct {
	base      int // first logical client id on this connection
	sched     *loadgen.Schedule
	schedNext int64 // next arrival, ns of schedule time, not yet consumed
	schedBase int64 // schedule time at which the current round starts
	gen       *workload.Generator
	pick      *rand.Rand // picks each operation's logical client
	ops       []opInput
}

func workloadConfig(sp spec, records int) workload.Config {
	return workload.Config{
		Records:    records,
		WriteRatio: sp.writeRatio,
		Dist:       workload.Zipfian,
		ZipfTheta:  zipfTheta,
		ValueSize:  valueSize,
	}
}

// newInputs seeds connection i's generators.
func newInputs(sp spec, seed int64, records, i int) (inputs, error) {
	cseed := seed + int64(i)*0x9E3779B9
	in := inputs{
		base: i * (logicalClients / clientConns),
		gen:  workload.NewGenerator(workloadConfig(sp, records), cseed+7919),
		pick: rand.New(rand.NewSource(cseed ^ 0xC0FFEE)),
	}
	if sp.pace == paceOpen {
		var err error
		if in.sched, err = loadgen.NewSchedule("poisson", sp.rate/clientConns, cseed); err != nil {
			return in, err
		}
		in.schedNext = in.sched.Next()
	}
	return in, nil
}

// conn is one client connection: its inputs, its window of slots and the
// sender and receiver goroutines' shared state.
type conn struct {
	b  *bench
	id int
	ep transport.Transport
	inputs

	free     chan int
	due      []int64 // paceClosed: when the slot's next request became due
	intended []int64
	sent     []int64
	isWrite  []bool

	value []byte
	seq   uint64
	// wrote is a ring of the keys most recently written, for the
	// replica check.
	wrote  []uint64
	wroteN int

	// t is reset between rounds, when nothing is in flight.
	t       *tally
	spanned uint64
}

// direct is the two in-process callers of paceDirect.
type direct struct {
	reader, writer *node.Node
	rkeys, wkeys   []ddp.Key
	rt, wt         *tally
	wrote          []uint64
	wroteN         int
	seq            uint64
	ri, wi         int
}

// bench is one set-up: a running cluster, the seeded inputs and the
// driver state over it.
type bench struct {
	sp     spec
	seed   int64
	lc     *loadgen.LiveCluster
	gate   *quietGate
	conns  []*conn
	direct *direct
	rxWg   sync.WaitGroup
	spans  *spanLog // nil unless traced
	// scratch for merging the connections' samples between rounds
	wr, rd, late []int64
}

// t0 is the origin of every time the driver records, so that spans from
// several set-ups and probes in one process share one axis.
var t0 = time.Now()

func now() int64 { return int64(time.Since(t0)) }

// setUp brings a cluster up, preloads it and generates the inputs that
// do not depend on a round's length.
func setUp(sp spec, opt options, ob loadgen.Observe, offloadOn bool, spans *spanLog) (*bench, error) {
	seed, records := opt.seed, opt.records
	nconns := clientConns
	if sp.pace == paceDirect {
		nconns = 0
	}
	lc, err := loadgen.StartCluster(loadgen.Cluster{
		Nodes:        clusterNodes,
		Model:        sp.model,
		PersistDelay: persistDelay,
		Fabric:       sp.fabric,
	}, ob, loadgen.Offload{Enabled: offloadOn}, nconns)
	if err != nil {
		return nil, fmt.Errorf("%s: start cluster: %w", sp.name, err)
	}
	initial := make([]byte, valueSize)
	for _, nd := range lc.Nodes {
		nd.Store().Preload(records, initial)
	}
	b := &bench{sp: sp, seed: seed, lc: lc, gate: opt.gate, spans: spans}
	if sp.pace == paceDirect {
		b.direct = newDirect(lc, workloadConfig(sp, records), seed)
		return b, nil
	}
	for i := 0; i < nconns; i++ {
		in, err := newInputs(sp, seed, records, i)
		if err != nil {
			b.close()
			return nil, err
		}
		c := &conn{
			b:        b,
			id:       i,
			ep:       lc.ClientEps[i],
			inputs:   in,
			free:     make(chan int, sp.window),
			due:      make([]int64, sp.window),
			intended: make([]int64, sp.window),
			sent:     make([]int64, sp.window),
			isWrite:  make([]bool, sp.window),
			value:    stampedValue(seed),
			wrote:    make([]uint64, 1024),
			t:        newTally(),
		}
		for s := 0; s < sp.window; s++ {
			c.free <- s
		}
		b.conns = append(b.conns, c)
		b.rxWg.Add(1)
		go c.receive()
	}
	return b, nil
}

// stampedValue is a write's payload: the seed in the first 8 bytes marks
// it as this run's, bytes 8..16 take the writer's operation counter.
func stampedValue(seed int64) []byte {
	v := make([]byte, valueSize)
	binary.LittleEndian.PutUint64(v, uint64(seed))
	return v
}

// close tears the cluster down and waits for the receivers.
func (b *bench) close() {
	b.lc.Close()
	b.rxWg.Wait()
}

// generate fills ops with one round's inputs. Open pacing takes the
// schedule's arrivals inside the round; closed pacing takes as many
// operations as the round could possibly send (the sender wraps around
// if it ever needs more).
func (c *inputs) generate(dur time.Duration) {
	c.ops = c.ops[:0]
	mk := func(at int64) {
		op := c.gen.Next()
		c.ops = append(c.ops, opInput{
			at:     at,
			key:    op.Key,
			client: uint32(c.base + c.pick.Intn(logicalClients/clientConns)),
			write:  op.Kind != workload.OpRead,
		})
	}
	if c.sched != nil {
		end := c.schedBase + int64(dur)
		for c.schedNext < end {
			mk(c.schedNext - c.schedBase)
			c.schedNext = c.sched.Next()
		}
		c.schedBase = end
		return
	}
	const perSecond = 100_000 // above any closed-loop rate one connection reaches here
	n := int(dur.Seconds()*perSecond) + 1024
	for i := 0; i < n; i++ {
		mk(0)
	}
}

// send is the sender goroutine of one round. It returns when the round's
// inputs are used up (open) or its time is (closed), or when stop closes
// because the cluster no longer answers.
func (c *conn) send(start, dur int64, stop <-chan struct{}) {
	b, t := c.b, c.t
	open := b.sp.pace == paceOpen
	for i := 0; ; i++ {
		var op *opInput
		if open {
			if i >= len(c.ops) {
				return
			}
			op = &c.ops[i]
			// Sleep toward the intended instant and yield for the last
			// stretch; overshoot is charged to the operation.
			for {
				d := start + op.at - now()
				if d <= 0 {
					break
				}
				if d > int64(200*time.Microsecond) {
					time.Sleep(time.Duration(d) - 100*time.Microsecond)
				} else {
					runtime.Gosched()
				}
			}
		} else {
			op = &c.ops[i%len(c.ops)]
		}

		var slot int
		select {
		case slot = <-c.free:
		default:
			w0 := now()
			select {
			case slot = <-c.free:
			case <-stop:
				// The round's drain counts what is missing as abandoned.
				return
			}
			t.windowNs += now() - w0
		}
		now := now()
		var due int64
		if open {
			due = start + op.at
		} else {
			if now-start >= dur {
				c.free <- slot
				return
			}
			if due = c.due[slot]; due < start {
				due = start
			}
		}

		req := transport.ClientRequest{Op: transport.OpClientRead, Key: ddp.Key(op.key)}
		if op.write {
			c.seq++
			binary.LittleEndian.PutUint64(c.value[8:], uint64(c.id)<<56|c.seq)
			req.Op, req.Value = transport.OpClientWrite, c.value
			c.wrote[c.wroteN%len(c.wrote)] = op.key
			c.wroteN++
		}
		c.intended[slot], c.sent[slot], c.isWrite[slot] = due, now, op.write
		t.late = append(t.late, now-due)
		t.sent++
		err := c.ep.Send(ddp.NodeID(int(op.client)%clusterNodes), transport.Frame{
			Kind:   transport.FrameClientRequest,
			Client: uint64(slot)<<32 | uint64(op.client),
			Req:    req,
		})
		if err != nil {
			t.sendErr++
			c.free <- slot
		}
	}
}

// receive is the connection's receiver goroutine, for the life of the
// set-up: it matches each response to its slot, records the latency in
// the current round's tally and frees the slot.
func (c *conn) receive() {
	defer c.b.rxWg.Done()
	open := c.b.sp.pace == paceOpen
	for f := range c.ep.Recv() {
		if f.Kind != transport.FrameClientResponse {
			continue
		}
		slot := int(f.Client >> 32)
		if slot >= len(c.sent) {
			continue
		}
		now := now()
		t := c.t
		origin := c.sent[slot]
		if open {
			origin = c.intended[slot]
		}
		switch f.Resp.Status {
		case transport.StatusOK:
			switch {
			case c.isWrite[slot]:
				t.ok++
				t.wr = append(t.wr, now-origin)
			case len(f.Resp.Value) != valueSize:
				t.badRead++
			default:
				t.ok++
				t.rd = append(t.rd, now-origin)
			}
		case transport.StatusShed:
			t.shed++
		default:
			t.errs++
		}
		if c.b.spans != nil {
			if c.spanned++; c.spanned%spanEvery == 0 {
				c.b.spans.op(c.isWrite[slot], c.intended[slot], c.sent[slot], now)
			}
		}
		c.due[slot] = now
		c.free <- slot
	}
}

// drain collects every slot of the window back, so that nothing is in
// flight between rounds, and returns how many never came back.
func (c *conn) drain() (abandoned int64) {
	grace := time.NewTimer(drainGrace)
	defer grace.Stop()
	slots := make([]int, 0, cap(c.free))
collect:
	for len(slots) < cap(c.free) {
		select {
		case s := <-c.free:
			slots = append(slots, s)
		case <-grace.C:
			// Lost slots stay lost; the run has failed already.
			abandoned = int64(cap(c.free) - len(slots))
			break collect
		}
	}
	for _, s := range slots {
		c.free <- s
	}
	return abandoned
}

func newDirect(lc *loadgen.LiveCluster, wcfg workload.Config, seed int64) *direct {
	d := &direct{
		reader: lc.Nodes[0],
		writer: lc.Nodes[1],
		rt:     newTally(),
		wt:     newTally(),
		wrote:  make([]uint64, 1024),
	}
	d.rkeys, d.wkeys = newDirectKeys(wcfg, seed)
	return d
}

// newDirectKeys generates the reader's and the writer's key arrays, two
// independent streams over the same zipfian key space.
func newDirectKeys(wcfg workload.Config, seed int64) (rkeys, wkeys []ddp.Key) {
	rkeys, wkeys = make([]ddp.Key, readerKeys), make([]ddp.Key, writerKeys)
	rg := workload.NewGenerator(wcfg, seed+7919)
	wg := workload.NewGenerator(wcfg, seed+0x9E3779B9+7919)
	for i := range rkeys {
		rkeys[i] = ddp.Key(rg.Next().Key)
	}
	for i := range wkeys {
		wkeys[i] = ddp.Key(wg.Next().Key)
	}
	return rkeys, wkeys
}

// read is the direct reader: Node.ReadInto over the key array until the
// round's time is up, timed per readBatch reads.
func (d *direct) read(b *bench, start, dur int64) {
	t := d.rt
	var buf []byte
	from := now()
	for from-start < dur {
		for j := 0; j < readBatch; j++ {
			v, err := d.reader.ReadInto(d.rkeys[d.ri&(readerKeys-1)], buf)
			d.ri++
			switch {
			case err != nil:
				t.errs++
			case len(v) != valueSize:
				t.badRead++
			default:
				t.ok++
				buf = v[:0]
			}
		}
		to := now()
		t.rd = append(t.rd, to-from)
		from = to
	}
	t.sent = t.ok + t.errs + t.badRead
}

// write is the direct writer: Node.Write over its key array until the
// round's time is up.
func (d *direct) write(b *bench, start, dur int64, seed int64) {
	t := d.wt
	val := stampedValue(seed)
	done := now()
	for done-start < dur {
		key := d.wkeys[d.wi&(writerKeys-1)]
		d.wi++
		d.seq++
		binary.LittleEndian.PutUint64(val[8:], d.seq)
		d.wrote[d.wroteN%len(d.wrote)] = uint64(key)
		d.wroteN++
		call := now()
		t.late = append(t.late, call-done) // the caller's own time between two calls
		err := d.writer.Write(key, val)
		done = now()
		t.sent++
		if err != nil {
			t.errs++
			continue
		}
		t.ok++
		t.wr = append(t.wr, done-call)
		if b.spans != nil && t.sent%spanEvery == 0 {
			b.spans.op(true, call, call, done)
		}
	}
}

// roundResult is one round, merged over the connections.
type roundResult struct {
	windowNs int64 // round start to the last response drained
	cpuNs    int64

	sent, ok, shed, errs, sendErr, badRead, abandoned int64
	writes, reads                                     int64 // OK operations by kind

	// Ascending samples, valid until the next round. readPer is how many
	// reads one rd sample covers.
	wr, rd, late []int64
	readPer      float64
	waitNs       int64
}

// attempted is every operation the driver tried to issue.
func (r *roundResult) attempted() int64 { return r.sent }

// failed is every attempted operation that did not end OK and correct.
func (r *roundResult) failed() int64 { return r.sent - r.ok }

// round runs one timed round of dur and returns what the driver saw. It
// starts once the box is quiet; the inputs are generated and the heap
// collected before the clock starts.
func (b *bench) round(dur time.Duration) *roundResult {
	b.gate.wait()
	var tallies []*tally
	if b.direct != nil {
		tallies = []*tally{b.direct.rt, b.direct.wt}
	} else {
		for _, c := range b.conns {
			c.generate(dur)
			tallies = append(tallies, c.t)
		}
	}
	for _, t := range tallies {
		t.reset()
	}
	runtime.GC()

	res := &roundResult{readPer: 1}
	cpu0 := cpuTime()
	start := now()
	var wg sync.WaitGroup
	if d := b.direct; d != nil {
		res.readPer = readBatch
		wg.Add(2)
		go func() { defer wg.Done(); d.read(b, start, int64(dur)) }()
		go func() { defer wg.Done(); d.write(b, start, int64(dur), b.seed) }()
		wg.Wait()
	} else {
		stop := make(chan struct{})
		overrun := time.AfterFunc(dur+drainGrace, func() { close(stop) })
		for _, c := range b.conns {
			wg.Add(1)
			go func(c *conn) { defer wg.Done(); c.send(start, int64(dur), stop) }(c)
		}
		wg.Wait()
		overrun.Stop()
		for _, c := range b.conns {
			res.abandoned += c.drain()
		}
	}
	res.windowNs = now() - start
	res.cpuNs = int64(cpuTime() - cpu0)

	b.wr, b.rd, b.late = b.wr[:0], b.rd[:0], b.late[:0]
	for _, t := range tallies {
		res.sent += t.sent
		res.ok += t.ok
		res.shed += t.shed
		res.errs += t.errs
		res.sendErr += t.sendErr
		res.badRead += t.badRead
		res.waitNs += t.windowNs
		res.writes += int64(len(t.wr))
		b.wr = append(b.wr, t.wr...)
		b.rd = append(b.rd, t.rd...)
		b.late = append(b.late, t.late...)
	}
	slices.Sort(b.wr)
	slices.Sort(b.rd)
	slices.Sort(b.late)
	res.reads = res.ok - res.writes
	res.wr, res.rd, res.late = b.wr, b.rd, b.late
	return res
}

// writtenKeys returns the keys the driver wrote most recently, oldest
// first within each writer.
func (b *bench) writtenKeys() []uint64 {
	var out []uint64
	ring := func(keys []uint64, n int) {
		if n > len(keys) {
			n = len(keys)
		}
		out = append(out, keys[:n]...)
	}
	if b.direct != nil {
		ring(b.direct.wrote, b.direct.wroteN)
	}
	for _, c := range b.conns {
		ring(c.wrote, c.wroteN)
	}
	return out
}
