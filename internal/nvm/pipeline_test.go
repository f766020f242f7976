package nvm

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/obs"
)

// TestGroupCommitDurability pins the two halves of the group-commit
// contract: a blocked Persist never returns before its batch has
// drained into the log, and a batch of concurrent persists pays the
// modeled latency once (not once per entry). It also checks the
// sharded log reports exactly what a per-entry reference log would.
func TestGroupCommitDurability(t *testing.T) {
	const delay = 100 * time.Millisecond
	log := NewLog()
	p := NewPipeline(log, PipelineConfig{
		Lat: LatencyModel{FixedNs: delay.Nanoseconds()},
	})
	defer p.Close()

	// Not durable before the drain: start a persist, then observe the
	// log while the batch is still sleeping out its device latency.
	started := make(chan struct{})
	first := make(chan bool, 1)
	go func() {
		close(started)
		first <- p.Persist(1, ts(0, 1), []byte("v1"), 0)
	}()
	<-started
	time.Sleep(delay / 10)
	if log.LocallyDurable(1, ts(0, 1)) {
		t.Fatal("entry reported durable before its batch drained")
	}

	// Pile concurrent persists onto the same queue while the first
	// batch drains; they must coalesce and complete in ~2 delays
	// (the in-flight batch plus one group commit), not 1+K delays.
	const k = 8
	var wg sync.WaitGroup
	begin := time.Now()
	for i := 0; i < k; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !p.Persist(ddp.Key(10+i), ts(0, 1), []byte("vv"), 0) {
				t.Error("persist failed on open pipeline")
			}
		}()
	}
	wg.Wait()
	if !<-first {
		t.Fatal("first persist failed")
	}
	elapsed := time.Since(begin)
	if elapsed > time.Duration(3)*delay {
		t.Fatalf("%d concurrent persists took %v; group commit should cost ~1 batch delay, serial would be %v",
			k, elapsed, time.Duration(k)*delay)
	}

	// Every returned persist is visible as locally durable.
	if !log.LocallyDurable(1, ts(0, 1)) {
		t.Fatal("first persist returned but is not locally durable")
	}
	for i := 0; i < k; i++ {
		if !log.LocallyDurable(ddp.Key(10+i), ts(0, 1)) {
			t.Fatalf("persist %d returned but is not locally durable", i)
		}
	}
	if got := p.Entries(); got != k+1 {
		t.Fatalf("pipeline drained %d entries, want %d", got, k+1)
	}
	if b := p.Batches(); b >= k+1 {
		t.Fatalf("got %d batches for %d entries: nothing coalesced", b, k+1)
	}
}

// TestPipelineMatchesPerEntryLog drives the same update sequence
// through a pipeline and through the old-style per-entry Append and
// checks the durable views agree (LocallyDurable, DurableTS,
// Materialize).
func TestPipelineMatchesPerEntryLog(t *testing.T) {
	piped := NewLog()
	p := NewPipeline(piped, PipelineConfig{
		Lat: LatencyModel{FixedNs: int64(time.Microsecond)},
	})
	ref := NewLog()

	const keys, versions = 16, 8
	var wg sync.WaitGroup
	for k := 0; k < keys; k++ {
		k := k
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := 1; v <= versions; v++ {
				val := []byte{byte(k), byte(v)}
				if !p.Persist(ddp.Key(k), ts(0, v), val, 0) {
					t.Errorf("persist key %d v %d failed", k, v)
					return
				}
			}
		}()
	}
	wg.Wait()
	p.Close()
	for k := 0; k < keys; k++ {
		for v := 1; v <= versions; v++ {
			ref.Append(ddp.Key(k), ts(0, v), []byte{byte(k), byte(v)}, 0)
		}
	}

	if got, want := piped.Len(), ref.Len(); got != want {
		t.Fatalf("piped log has %d entries, reference %d", got, want)
	}
	refDB := ref.Materialize()
	for k, want := range refDB {
		gotTS, ok := piped.DurableTS(k)
		if !ok || gotTS != want.TS {
			t.Fatalf("key %d: durable TS %v (ok=%v), reference %v", k, gotTS, ok, want.TS)
		}
		if !piped.LocallyDurable(k, want.TS) {
			t.Fatalf("key %d not locally durable at %v", k, want.TS)
		}
	}
	pipedDB := piped.Materialize()
	if len(pipedDB) != len(refDB) {
		t.Fatalf("materialized %d keys, reference %d", len(pipedDB), len(refDB))
	}
	for k, want := range refDB {
		got := pipedDB[k]
		if got.TS != want.TS || string(got.Value) != string(want.Value) {
			t.Fatalf("key %d materialized (%v, %q), reference (%v, %q)",
				k, got.TS, got.Value, want.TS, want.Value)
		}
	}
}

// TestPipelineLogOrderIsEnqueueOrder pins the one-FIFO guarantee: the
// log's Seq order is exactly the enqueue order across all keys, not
// only per key. Each entry has its own key, so the log keeps every one
// of them (a key's superseded versions are gone once applied), and the
// keys stripe over every log shard.
func TestPipelineLogOrderIsEnqueueOrder(t *testing.T) {
	log := NewLog()
	p := NewPipeline(log, PipelineConfig{
		Lat: LatencyModel{FixedNs: int64(50 * time.Microsecond)},
	})
	const total = 200
	for i := 0; i < total; i++ {
		if !p.Enqueue(ddp.Key(i), ts(0, 1), []byte{byte(i), byte(i >> 8)}, 0) {
			t.Fatalf("enqueue %d failed", i)
		}
	}
	// A final blocking persist flushes everything queued before it.
	if !p.Persist(ddp.Key(total), ts(0, 1), []byte{byte(total), byte(total >> 8)}, 0) {
		t.Fatal("flush persist failed")
	}
	p.Close()

	entries := log.EntriesSince(0)
	if len(entries) != total+1 {
		t.Fatalf("log has %d entries, want %d", len(entries), total+1)
	}
	for i, e := range entries {
		want := []byte{byte(i), byte(i >> 8)}
		if e.Key != ddp.Key(i) || e.Seq != uint64(i) || string(e.Value) != string(want) {
			t.Fatalf("log position %d (seq %d) holds key %d %v, want enqueue #%d: key %d %v",
				i, e.Seq, e.Key, e.Value, i, i, want)
		}
	}
}

// TestPersistManySpansTwoBatches pins the scope flush on one FIFO: the
// scope's earlier entry sits in a batch that is still draining, the
// flush's set (EnqueueSetAck) accumulates in the next one, and the
// set's one ack fires only once both batches are in the log — or never,
// if Close aborts the set's batch first.
func TestPersistManySpansTwoBatches(t *testing.T) {
	for _, closeFirst := range []bool{false, true} {
		name := "durable"
		if closeFirst {
			name = "closed"
		}
		t.Run(name, func(t *testing.T) {
			log := NewLog()
			var held atomic.Bool
			draining, release := make(chan struct{}), make(chan struct{})
			type ack struct {
				to     ddp.NodeID
				kind   ddp.MsgKind
				key    ddp.Key
				ts     ddp.Timestamp
				sc     ddp.ScopeID
				stamp  int64
				logged int
			}
			acks := make(chan ack, 4)
			p := NewPipeline(log, PipelineConfig{
				Lat: LatencyModel{FixedNs: int64(50 * time.Microsecond)},
				// The first group commit parks in its hook: appended, but
				// still draining.
				OnBatch: func(int) {
					if held.CompareAndSwap(false, true) {
						close(draining)
						<-release
					}
				},
				OnAck: func(to ddp.NodeID, kind ddp.MsgKind, key ddp.Key, ts ddp.Timestamp, sc ddp.ScopeID, stamp int64) {
					acks <- ack{to, kind, key, ts, sc, stamp, len(log.EntriesSince(0))}
				},
			})
			var once sync.Once
			unblock := func() { once.Do(func() { close(release) }) }
			defer p.Close()
			defer unblock() // a failing test must not leave Close waiting on the hook

			const sc = ddp.ScopeID(3)
			if !p.Enqueue(1, ts(0, 1), []byte("a"), sc) {
				t.Fatal("enqueue failed on an open pipeline")
			}
			<-draining
			if !p.EnqueueSetAck(sc, []Update{
				{Key: 2, TS: ts(0, 1), Value: []byte("b")},
				{Key: 3, TS: ts(0, 1), Value: []byte("c")},
			}, 7, ddp.KindAckP) {
				t.Fatal("EnqueueSetAck failed on an open pipeline")
			}
			eventually(t, "flush accumulating behind the draining batch", func() bool {
				p.q.mu.Lock()
				defer p.q.mu.Unlock()
				return len(p.q.cur.entries) == 2
			})
			select {
			case a := <-acks:
				t.Fatalf("set acked (%+v) while its batch waited behind a draining one", a)
			default:
			}
			if log.LocallyDurable(2, ts(0, 1)) {
				t.Fatal("flush entry appended before the batch ahead of it completed")
			}
			if closeFirst {
				closed := make(chan struct{})
				go func() {
					p.Close()
					close(closed)
				}()
				eventually(t, "Close started", p.closed.Load)
				unblock()
				select {
				case <-closed:
				case <-time.After(5 * time.Second):
					t.Fatal("Close still blocked")
				}
				select {
				case a := <-acks:
					t.Fatalf("set acked (%+v) after Close aborted its batch", a)
				default:
				}
				return
			}
			unblock()

			var a ack
			select {
			case a = <-acks:
			case <-time.After(5 * time.Second):
				t.Fatal("the set's ack never fired")
			}
			if want := (ack{to: 7, kind: ddp.KindAckP, sc: sc, logged: 3}); a != want {
				t.Fatalf("set ack %+v, want %+v: the scope alone, once both batches are in the log", a, want)
			}
			entries := log.EntriesSince(0)
			for i, e := range entries {
				if e.Key != ddp.Key(i+1) {
					t.Fatalf("log position %d holds key %d, want %d", i, e.Key, i+1)
				}
			}
			if got := p.Batches(); got != 2 {
				t.Fatalf("%d batches, want 2", got)
			}
			select {
			case a := <-acks:
				t.Fatalf("a second ack %+v: a set carries one", a)
			default:
			}
		})
	}
}

// TestPersistCommitsOnCaller races Persist from 4 goroutines beside a
// stream of EnqueueAck entries the drain worker commits: Persist takes
// the drain token and commits on its caller, or finds its entry
// committed by the token holder before it, so every call returns true
// with its entry already in the log, and every ack still fires once.
func TestPersistCommitsOnCaller(t *testing.T) {
	const goroutines, perG, ackEntries = 4, 200, 400
	log := NewLog()
	var acks atomic.Int64
	p := NewPipeline(log, PipelineConfig{
		Lat: LatencyModel{FixedNs: 1295},
		OnAck: func(to ddp.NodeID, kind ddp.MsgKind, key ddp.Key, ts ddp.Timestamp, sc ddp.ScopeID, stamp int64) {
			acks.Add(1)
		},
	})
	defer p.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := 1; v <= ackEntries; v++ {
			if !p.EnqueueAck(100, ts(0, v), []byte("a"), 0, 1, ddp.KindAck, 0) {
				t.Error("EnqueueAck failed on an open pipeline")
				return
			}
		}
	}()
	for g := 0; g < goroutines; g++ {
		key := ddp.Key(g + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := 1; v <= perG; v++ {
				if !p.Persist(key, ts(0, v), []byte("p"), 0) {
					t.Error("Persist failed on an open pipeline")
					return
				}
				if !log.LocallyDurable(key, ts(0, v)) {
					t.Errorf("Persist of key %d v%d returned before it was in the log", key, v)
					return
				}
			}
		}()
	}
	wg.Wait()
	eventually(t, "every EnqueueAck entry to commit", func() bool { return acks.Load() == ackEntries })
	if got, want := p.Entries(), int64(goroutines*perG+ackEntries); got != want {
		t.Fatalf("pipeline drained %d entries, want %d", got, want)
	}
}

// TestPersistDurableBeforeCloseReportsTrue: a Persist whose entry
// another token holder appended reports true even when Close begins
// before the caller gets the token.
func TestPersistDurableBeforeCloseReportsTrue(t *testing.T) {
	p := NewPipeline(NewLog(), PipelineConfig{})
	p.token.Lock() // stand in for another committer
	res := make(chan bool, 1)
	go func() { res <- p.Persist(1, ts(0, 1), []byte("v"), 0) }()
	eventually(t, "the persist to enqueue", func() bool {
		return obs.Collect(p).GaugeValue("nvm.pipeline.pending") == 1
	})
	if !p.drain(false) {
		t.Fatal("drain aborted on an open pipeline")
	}
	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	eventually(t, "Close to begin", p.closed.Load)
	p.token.Unlock()
	if !<-res {
		t.Fatal("persist appended before Close reported not durable")
	}
	<-closed
}

// eventually polls cond until it holds, failing the test after 5 s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestPipelineCloseUnblocks pins the shutdown contract: a persist
// blocked in a long device sleep returns false promptly when the
// pipeline closes, instead of sleeping out the delay.
func TestPipelineCloseUnblocks(t *testing.T) {
	log := NewLog()
	p := NewPipeline(log, PipelineConfig{
		Lat: LatencyModel{FixedNs: (10 * time.Second).Nanoseconds()},
	})
	res := make(chan bool, 1)
	go func() {
		res <- p.Persist(1, ts(0, 1), []byte("v"), 0)
	}()
	time.Sleep(10 * time.Millisecond) // let the drain enter its sleep
	begin := time.Now()
	p.Close()
	select {
	case ok := <-res:
		if ok {
			t.Fatal("persist reported durable after close aborted the drain")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("persist still blocked after Close")
	}
	if e := time.Since(begin); e > 2*time.Second {
		t.Fatalf("close took %v; must not wait out the device delay", e)
	}
	if p.Persist(2, ts(0, 1), []byte("v"), 0) {
		t.Fatal("persist on closed pipeline reported success")
	}
	if p.Enqueue(2, ts(0, 1), []byte("v"), 0) {
		t.Fatal("enqueue on closed pipeline reported success")
	}
	if p.EnqueueAck(2, ts(0, 1), []byte("v"), 0, 1, ddp.KindAck, 0) {
		t.Fatal("EnqueueAck on closed pipeline reported success")
	}
}

// TestPipelineInlineFastPath: a zero latency model takes the same drain
// as any other — an Enqueue lands in the log without a caller waiting,
// Persist returns only once durable, a set's ack fires only once the
// set is, and every entry is counted exactly once.
func TestPipelineInlineFastPath(t *testing.T) {
	log := NewLog()
	setDurable := make(chan bool, 1)
	p := NewPipeline(log, PipelineConfig{
		OnAck: func(to ddp.NodeID, kind ddp.MsgKind, key ddp.Key, ts0 ddp.Timestamp, sc ddp.ScopeID, stamp int64) {
			setDurable <- log.LocallyDurable(4, ts(0, 1)) && log.LocallyDurable(5, ts(0, 1))
		},
	})
	defer p.Close()
	if !p.Enqueue(3, ts(0, 1), []byte("v"), 0) {
		t.Fatal("enqueue failed")
	}
	eventually(t, "zero-latency enqueue to reach the log", func() bool {
		return log.LocallyDurable(3, ts(0, 1))
	})
	if !p.Persist(3, ts(0, 2), []byte("w"), 0) {
		t.Fatal("zero-latency persist failed")
	}
	if !log.LocallyDurable(3, ts(0, 2)) {
		t.Fatal("zero-latency persist returned before it was durable")
	}
	if !p.EnqueueSetAck(1, []Update{{Key: 4, TS: ts(0, 1)}, {Key: 5, TS: ts(0, 1)}}, 2, ddp.KindAckP) {
		t.Fatal("zero-latency EnqueueSetAck failed")
	}
	select {
	case durable := <-setDurable:
		if !durable {
			t.Fatal("zero-latency set acked before it was durable")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("zero-latency set never acked")
	}
	if got := p.Entries(); got != 4 {
		t.Fatalf("entries %d, want 4", got)
	}
}

// TestEnqueueAckDispatchesAfterDurable pins the closure-free ack path,
// with and without a modeled device latency: the OnAck hook fires with
// the entry's addressing and stamp, strictly after the entry's group
// commit reached the log. A zero latency charges nothing but takes the
// same drain.
func TestEnqueueAckDispatchesAfterDurable(t *testing.T) {
	for _, tc := range []struct {
		name string
		lat  time.Duration
	}{{"zero", 0}, {"1ms", time.Millisecond}} {
		t.Run(tc.name, func(t *testing.T) {
			log := NewLog()
			type ack struct {
				to      ddp.NodeID
				kind    ddp.MsgKind
				key     ddp.Key
				ts      ddp.Timestamp
				stamp   int64
				durable bool
			}
			acks := make(chan ack, 16)
			p := NewPipeline(log, PipelineConfig{
				Lat: LatencyModel{FixedNs: tc.lat.Nanoseconds()},
				OnAck: func(to ddp.NodeID, kind ddp.MsgKind, key ddp.Key, ts ddp.Timestamp, sc ddp.ScopeID, stamp int64) {
					acks <- ack{to, kind, key, ts, stamp, log.LocallyDurable(key, ts)}
				},
			})
			defer p.Close()
			if !p.EnqueueAck(9, ts(0, 3), []byte("payload"), 0, 4, ddp.KindAckP, 77) {
				t.Fatal("EnqueueAck failed on an open pipeline")
			}
			select {
			case a := <-acks:
				if a.to != 4 || a.kind != ddp.KindAckP || a.key != 9 || a.ts != ts(0, 3) || a.stamp != 77 {
					t.Fatalf("ack carried %+v", a)
				}
				if !a.durable {
					t.Fatal("ack dispatched before the entry was durable")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("OnAck never fired")
			}
		})
	}
}

// TestPipelineRecycledBuffersDoNotAlias drives many distinct values
// through one queue so its recycled value buffers and batches are
// reused many times over, each key first inserted and then overwritten
// in the log, then checks every key's durable value survived intact —
// a log version that aliased a recycled buffer would hold a later
// persist's bytes.
func TestPipelineRecycledBuffersDoNotAlias(t *testing.T) {
	log := NewLog()
	p := NewPipeline(log, PipelineConfig{
		Lat: LatencyModel{FixedNs: int64(10 * time.Microsecond)},
	})
	const keys, versions = 64, 8
	for v := 1; v <= versions; v++ {
		for k := 0; k < keys; k++ {
			if !p.Persist(ddp.Key(k), ts(0, v), []byte{byte(k), byte(v), 0xEE}, 0) {
				t.Fatalf("persist key %d v%d failed", k, v)
			}
		}
	}
	p.Close()
	db := log.Materialize()
	if len(db) != keys {
		t.Fatalf("log holds %d keys, want %d", len(db), keys)
	}
	for k := 0; k < keys; k++ {
		e := db[ddp.Key(k)]
		if want := []byte{byte(k), versions, 0xEE}; e.TS != ts(0, versions) || string(e.Value) != string(want) {
			t.Fatalf("key %d: durable %v %v, want %v %v (recycled buffer aliased)", k, e.TS, e.Value, ts(0, versions), want)
		}
	}
}

// TestPipelineTimerParkPath exercises the pooled-timer charge path
// (modeled latency above the spin threshold) across several batches:
// parks are counted, persists complete, and Close stays prompt.
func TestPipelineTimerParkPath(t *testing.T) {
	p := NewPipeline(NewLog(), PipelineConfig{
		Lat: LatencyModel{FixedNs: int64(200 * time.Microsecond)}, // > spinLatencyNs
	})
	for i := 0; i < 8; i++ {
		if !p.Persist(ddp.Key(i), ts(0, 1), []byte("v"), 0) {
			t.Fatal("persist failed on an open pipeline")
		}
	}
	s := obs.Collect(p)
	if got := s.Counter("nvm.pipeline.timer_parks"); got == 0 {
		t.Fatal("200 µs latency never took the timer-park path")
	}
	if got := s.Counter("nvm.pipeline.spin_charges"); got != 0 {
		t.Fatalf("spin_charges = %d above the spin threshold, want 0", got)
	}
	begin := time.Now()
	p.Close()
	if e := time.Since(begin); e > time.Second {
		t.Fatalf("close took %v with pooled timers in flight", e)
	}
}

// TestPipelineInstruments pins the registry export under a 1.3 µs
// modeled device write (Table II): the drain must spin, never park on a
// runtime timer.
func TestPipelineInstruments(t *testing.T) {
	checkPipelineInstruments(t, 1295, true)
}

// TestPipelineInlineInstruments: a zero latency model keeps the same
// counters exact and charges neither a spin nor a timer park.
func TestPipelineInlineInstruments(t *testing.T) {
	checkPipelineInstruments(t, 0, false)
}

// checkPipelineInstruments drives serial persists and one flush through
// a pipeline with a fixed latency of ns and checks the registry export:
// drained batches show up as exact counters and distributions, the
// pending gauge returns to zero after a quiesce, and spin charges were
// taken iff spin.
func checkPipelineInstruments(t *testing.T, ns int64, spin bool) {
	t.Helper()
	p := NewPipeline(NewLog(), PipelineConfig{Lat: LatencyModel{FixedNs: ns}})
	defer p.Close()

	// Serial persists commit one batch each; the flush's set lands in
	// one batch of its own.
	const serial = 32
	for i := 0; i < serial; i++ {
		if !p.Persist(ddp.Key(i), ts(0, 1), []byte("v"), 0) {
			t.Fatal("persist failed on an open pipeline")
		}
	}
	if !p.EnqueueSetAck(1, []Update{{Key: 1, TS: ts(0, 2)}, {Key: 2, TS: ts(0, 2)}, {Key: 3, TS: ts(0, 2)}}, 2, ddp.KindAckP) {
		t.Fatal("EnqueueSetAck failed on an open pipeline")
	}
	eventually(t, "the set to drain", func() bool { return obs.Collect(p).GaugeValue("nvm.pipeline.pending") == 0 })

	s := obs.Collect(p)
	if got := s.Counter("nvm.pipeline.entries"); got != serial+3 {
		t.Fatalf("entries = %d, want %d", got, serial+3)
	}
	if got := s.Counter("nvm.pipeline.batches"); got != serial+1 || got != p.Batches() {
		t.Fatalf("batches counter %d (Batches() %d), want %d", got, p.Batches(), serial+1)
	}
	if spun := s.Counter("nvm.pipeline.spin_charges") > 0; spun != spin {
		t.Fatalf("spin_charges = %d, want spin path %v", s.Counter("nvm.pipeline.spin_charges"), spin)
	}
	if got := s.Counter("nvm.pipeline.timer_parks"); got != 0 {
		t.Fatalf("timer_parks = %d, want 0 below the spin threshold", got)
	}
	if got := s.GaugeValue("nvm.pipeline.pending"); got != 0 {
		t.Fatalf("pending gauge = %d after quiesce, want 0", got)
	}
	h := s.Histogram("nvm.pipeline.batch_entries")
	if h.Count != serial+1 || h.Sum != serial+3 {
		t.Fatalf("batch_entries histogram = %+v", h)
	}
	if s.Histogram("nvm.pipeline.drain_ns").Count != serial+1 {
		t.Fatal("drain latency not observed once per batch")
	}
}
