package nvm

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/obs"
)

// goid returns the calling goroutine's id, parsed from its stack
// header ("goroutine N [...").
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	id, _ := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}

// TestFlushCommitsOnCaller pins run-to-completion: a deferred ack's
// group commit runs on the goroutine that calls Flush, OnAck fires
// there after the entry is in the log and before Flush returns, and
// the drain worker is never woken.
func TestFlushCommitsOnCaller(t *testing.T) {
	for _, tc := range []struct {
		name string
		ns   int64
	}{{"zero", 0}, {"1295ns", 1295}} {
		t.Run(tc.name, func(t *testing.T) {
			log := NewLog()
			var ackG atomic.Uint64
			var logged atomic.Bool
			p := NewPipeline(log, PipelineConfig{
				Lat: LatencyModel{FixedNs: tc.ns},
				OnAck: func(to ddp.NodeID, kind ddp.MsgKind, key ddp.Key, ts ddp.Timestamp, sc ddp.ScopeID, stamp int64) {
					es := log.EntriesSince(0)
					logged.Store(len(es) == 1 && es[0].Key == key && es[0].TS == ts)
					ackG.Store(goid())
				},
			})
			defer p.Close()
			if !p.DeferAck(9, ts(0, 1), []byte("v"), 0, 2, ddp.KindAck, 0) {
				t.Fatal("DeferAck failed on an open pipeline")
			}
			p.Flush()
			if got := ackG.Load(); got != goid() {
				t.Fatalf("OnAck ran on goroutine %d by the time Flush returned, want the caller %d", got, goid())
			}
			if !logged.Load() {
				t.Fatal("OnAck ran before the entry was in the log")
			}
			s := obs.Collect(p)
			if got := s.Counter("nvm.pipeline.worker_wakes"); got != 0 {
				t.Fatalf("worker_wakes = %d, want 0", got)
			}
			if got := s.Counter("nvm.pipeline.inline_commits"); got != 1 {
				t.Fatalf("inline_commits = %d, want 1", got)
			}
			if got := s.GaugeValue("nvm.pipeline.pending"); got != 0 {
				t.Fatalf("pending = %d after Flush, want 0", got)
			}
		})
	}
}

// TestFlushNeverStrands races deferred acks and their Flushes from 8
// goroutines against a stream of entries whose charge (~126 µs for
// 100 KB) only the drain worker takes. Flushes lose the token to the
// worker or to each other, or find a long charge at the head of the
// queue; each case must still commit every entry: every ack arrives
// exactly once, and each goroutine's entries reach the log in its
// enqueue order. Each entry has its own key (entryKey), so the log
// keeps every one of them and their Seqs show that order.
func TestFlushNeverStrands(t *testing.T) {
	const goroutines, perG = 8, 500
	entryKey := func(g, v int) ddp.Key { return ddp.Key(1 + g*perG + v - 1) }
	log := NewLog()
	var acks [goroutines][perG + 1]atomic.Int32
	p := NewPipeline(log, PipelineConfig{
		Lat: LatencyModel{NsPerKB: 1295},
		OnAck: func(to ddp.NodeID, kind ddp.MsgKind, key ddp.Key, ts ddp.Timestamp, sc ddp.ScopeID, stamp int64) {
			acks[int(key-1)/perG][ts.Version].Add(1)
		},
	})
	defer p.Close()
	big := make([]byte, 100<<10)
	const bigKey = ddp.Key(1 << 20)
	p.Enqueue(bigKey, ts(0, 0), big, 0)
	stop := make(chan struct{})
	var bigDone sync.WaitGroup
	bigDone.Add(1)
	go func() {
		defer bigDone.Done()
		for v := 1; ; v++ {
			select {
			case <-stop:
				return
			default:
			}
			p.Enqueue(bigKey, ts(0, v), big, 0)
			for !log.LocallyDurable(bigKey, ts(0, v)) {
				time.Sleep(100 * time.Microsecond) // idle gaps: Flush can win the token
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := 1; v <= perG; v++ {
				if !p.DeferAck(entryKey(g, v), ts(0, v), []byte("v"), 0, 1, ddp.KindAck, 0) {
					t.Error("DeferAck failed on an open pipeline")
					return
				}
				p.Flush()
				if v%10 == 0 {
					time.Sleep(20 * time.Microsecond)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	bigDone.Wait()
	eventually(t, "every deferred entry to commit", func() bool {
		return obs.Collect(p).GaugeValue("nvm.pipeline.pending") == 0
	})
	for g := range acks {
		for v := 1; v <= perG; v++ {
			if n := acks[g][v].Load(); n != 1 {
				t.Fatalf("goroutine %d v%d acked %d times, want 1", g, v, n)
			}
		}
	}
	var next [goroutines]ddp.Version
	for _, e := range log.EntriesSince(0) {
		if e.Key == bigKey {
			continue
		}
		g := int(e.Key-1) / perG
		if want := next[g] + 1; e.TS.Version != want {
			t.Fatalf("goroutine %d: log holds v%d where enqueue order has v%d", g, e.TS.Version, want)
		}
		next[g] = e.TS.Version
	}
	// The mix of inline and worker commits varies run to run; the long
	// charges always fall to the worker, the only goroutine here that
	// parks a charge on a timer.
	s := obs.Collect(p)
	t.Logf("inline_commits = %d, timer_parks = %d", s.Counter("nvm.pipeline.inline_commits"), s.Counter("nvm.pipeline.timer_parks"))
	if s.Counter("nvm.pipeline.timer_parks") == 0 {
		t.Fatal("no long charge ran on the worker")
	}
}

// TestCloseDuringInlineCommit pins Close against a commit running on a
// Flush caller: Close waits for it (the commit's OnAck still runs, and
// before Close returns), no commit runs after, and the pipeline leaves
// no goroutine behind.
func TestCloseDuringInlineCommit(t *testing.T) {
	before := runtime.NumGoroutine()
	entered := make(chan struct{})
	release := make(chan struct{})
	closed := make(chan struct{})
	var acks, lateAcks atomic.Int32
	p := NewPipeline(NewLog(), PipelineConfig{
		OnBatch: func(int) {
			close(entered)
			<-release
		},
		OnAck: func(to ddp.NodeID, kind ddp.MsgKind, key ddp.Key, ts ddp.Timestamp, sc ddp.ScopeID, stamp int64) {
			acks.Add(1)
			select {
			case <-closed:
				lateAcks.Add(1)
			default:
			}
		},
	})
	if !p.DeferAck(1, ts(0, 1), []byte("v"), 0, 2, ddp.KindAck, 0) {
		t.Fatal("DeferAck failed on an open pipeline")
	}
	flushed := make(chan struct{})
	go func() {
		p.Flush()
		close(flushed)
	}()
	<-entered
	go func() {
		p.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while an inline commit was running")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close still blocked after the inline commit finished")
	}
	<-flushed
	if p.DeferAck(2, ts(0, 1), []byte("v"), 0, 2, ddp.KindAck, 0) {
		t.Fatal("DeferAck on a closed pipeline reported success")
	}
	p.Flush()
	if got := acks.Load(); got != 1 {
		t.Fatalf("%d acks, want exactly the in-flight commit's 1", got)
	}
	if got := lateAcks.Load(); got != 0 {
		t.Fatalf("%d acks ran after Close returned", got)
	}
	eventually(t, "the pipeline's goroutines to exit", func() bool {
		return runtime.NumGoroutine() <= before
	})
}
