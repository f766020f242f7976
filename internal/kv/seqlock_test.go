package kv

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/minos-ddp/minos/internal/ddp"
)

func ts(node ddp.NodeID, ver ddp.Version) ddp.Timestamp {
	return ddp.Timestamp{Node: node, Version: ver}
}

func TestReadIntoNeverPublished(t *testing.T) {
	r := newRecord(1)
	v, ok := r.ReadInto(nil)
	if !ok || v != nil {
		t.Fatalf("unpublished record: got (%v, %v), want (nil, true)", v, ok)
	}
}

// TestReadIntoEmptyValue: an empty published value reads as a non-nil
// empty slice even into a nil buffer, so it never looks unpublished.
func TestReadIntoEmptyValue(t *testing.T) {
	r := newRecord(1)
	r.Lock()
	r.Publish(nil, ts(0, 1))
	r.Unlock()
	v, ok := r.ReadInto(nil)
	if !ok || v == nil || len(v) != 0 || !r.Published() {
		t.Fatalf("empty value: got (%v, %v), published %v; want a non-nil empty slice", v, ok, r.Published())
	}
}

func TestReadIntoSeesPublish(t *testing.T) {
	r := newRecord(1)
	r.Lock()
	r.Publish([]byte("hello"), ts(0, 1))
	r.Unlock()
	v, ok := r.ReadInto(nil)
	if !ok || string(v) != "hello" {
		t.Fatalf("got (%q, %v), want (hello, true)", v, ok)
	}
	// Reuse: a big-enough buffer must be filled in place.
	buf := make([]byte, 0, 64)
	v, ok = r.ReadInto(buf)
	if !ok || string(v) != "hello" {
		t.Fatalf("buffered read: got (%q, %v)", v, ok)
	}
	if &v[0] != &buf[:1][0] {
		t.Fatal("ReadInto allocated despite sufficient buffer capacity")
	}
}

func TestReadIntoStallsWhileRDLocked(t *testing.T) {
	r := newRecord(1)
	wr := ts(0, 1)
	r.Lock()
	r.SnatchRDLock(wr)
	r.Publish([]byte("x"), wr)
	r.Unlock()
	if _, ok := r.ReadInto(nil); ok {
		t.Fatal("ReadInto must defer to the slow path while RDLocked")
	}
	r.Lock()
	r.ReleaseRDLockIfOwner(wr)
	r.Unlock()
	if v, ok := r.ReadInto(nil); !ok || string(v) != "x" {
		t.Fatalf("after release: got (%q, %v), want (x, true)", v, ok)
	}
}

func TestForceReleaseClearsBlocked(t *testing.T) {
	r := newRecord(1)
	wr := ts(2, 7)
	r.Lock()
	r.SnatchRDLock(wr)
	r.Publish([]byte("y"), wr)
	r.ForceReleaseRDLock()
	r.Unlock()
	if !r.Meta.RDLockOwner.IsNoOwner() {
		t.Fatal("force release must free the RDLock")
	}
	if _, ok := r.ReadInto(nil); !ok {
		t.Fatal("force release must unblock lock-free reads")
	}
}

// TestSeqlockTornReads hammers one hot record with publications of
// distinguishable patterns while lock-free readers copy concurrently.
// Every successful read must be internally consistent: one pattern
// byte, repeated for the pattern's full length. Run under -race this
// also proves the seqlock's racing accesses are all atomic.
func TestSeqlockTornReads(t *testing.T) {
	r := newRecord(1)
	// Pattern i: byte(i) repeated 16+8*(i%13) times — torn reads mix
	// lengths or bytes from two patterns and fail the check below.
	patLen := func(i int) int { return 16 + 8*(i%13) }

	const writes = 20_000
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 0, 128)
			reads := 0
			for !stop.Load() {
				v, ok := r.ReadInto(buf)
				// Yield every iteration: on a single-P runtime a
				// non-yielding reader spins out its whole preemption
				// quantum, stretching the test into tens of seconds.
				runtime.Gosched()
				if !ok {
					continue
				}
				reads++
				if v == nil {
					continue // not yet published
				}
				buf = v[:0]
				b := v[0]
				i := int(b)
				if len(v) != patLen(i) {
					t.Errorf("torn read: pattern %d has len %d, want %d", i, len(v), patLen(i))
					return
				}
				for _, c := range v {
					if c != b {
						t.Errorf("torn read: mixed bytes %d and %d", b, c)
						return
					}
				}
			}
			if reads == 0 {
				t.Error("reader never completed a lock-free read")
			}
		}()
	}

	val := make([]byte, 0, 128)
	for i := 0; i < writes; i++ {
		p := i % 200
		val = val[:0]
		for j := 0; j < patLen(p); j++ {
			val = append(val, byte(p))
		}
		r.Lock()
		r.Publish(val, ts(0, ddp.Version(i+1)))
		r.Unlock()
		if i%64 == 0 {
			// On a single-P runtime the writer would otherwise finish
			// before any reader is scheduled at all.
			runtime.Gosched()
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestSeqlockReadersVsRDLock interleaves snatch/publish/release cycles
// with lock-free readers: a reader must never observe a value whose
// publication's RDLock is still held (the §III-D stall), which the
// blocked mirror guarantees by being raised before the publish and
// lowered only at release. The check uses the value itself: the locked
// phase publishes "dirty", release makes it "clean" — published under
// the same timestamp discipline the protocol uses.
func TestSeqlockReadersVsRDLock(t *testing.T) {
	r := newRecord(1)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 0, 16)
			for !stop.Load() {
				v, ok := r.ReadInto(buf)
				runtime.Gosched() // see TestSeqlockTornReads
				if !ok || v == nil {
					continue
				}
				buf = v[:0]
				if !bytes.Equal(v, []byte("clean")) {
					t.Errorf("lock-free read saw %q while RDLocked", v)
					return
				}
			}
		}()
	}
	for i := 1; i <= 10_000; i++ {
		wr := ts(0, ddp.Version(i))
		r.Lock()
		r.SnatchRDLock(wr)
		r.Publish([]byte("dirty"), wr)
		r.Unlock()
		// The write is "in flight" here: readers must stall (ok=false).
		r.Lock()
		r.Publish([]byte("clean"), wr) // same TS: the value settles
		r.ReleaseRDLockIfOwner(wr)
		r.Unlock()
		if i%64 == 0 {
			runtime.Gosched()
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestStoreGetWaitFreeUnderInserts drives wait-free Gets against
// concurrent copy-on-write inserts; under -race this pins that lookups
// need no lock against map publication.
func TestStoreGetWaitFreeUnderInserts(t *testing.T) {
	s := NewStore(4)
	var wg sync.WaitGroup
	var stop atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			s.GetOrCreate(ddp.Key(i % 512))
		}
	}()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50_000; i++ {
				if r := s.Get(ddp.Key(i % 512)); r != nil && r.Key != ddp.Key(i%512) {
					t.Errorf("Get returned record for wrong key")
					return
				}
			}
		}()
	}
	// Range must also be safe (and lock-free) against inserts.
	for i := 0; i < 100; i++ {
		s.Range(func(r *Record) bool { return true })
	}
	stop.Store(true)
	wg.Wait()
}

// TestStoreGetAcrossMerge: a key that exists must never read as absent.
// A merge (here Range's view) can move it from the overflow into the
// published map between Get's lock-free miss and its locked overflow
// lookup; the failure detector's Range raced a survivor's read this way.
func TestStoreGetAcrossMerge(t *testing.T) {
	const key = ddp.Key(7)
	for i := 0; i < 20_000; i++ {
		s := NewStore(1)
		s.GetOrCreate(key) // lands in the overflow, not yet merged
		done := make(chan struct{})
		go func() {
			s.Range(func(*Record) bool { return true })
			close(done)
		}()
		for j := 0; j < 4; j++ {
			if s.Get(key) == nil {
				t.Fatalf("iteration %d: Get missed an existing key across a merge", i)
			}
		}
		<-done
	}
}
