package kv

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"

	"github.com/minos-ddp/minos/internal/ddp"
)

func TestGetOrCreate(t *testing.T) {
	s := NewStore(4)
	if s.Get(42) != nil {
		t.Fatal("unwritten key should be absent")
	}
	r := s.GetOrCreate(42)
	if r == nil || r.Key != 42 {
		t.Fatalf("bad record %+v", r)
	}
	if s.GetOrCreate(42) != r {
		t.Fatal("GetOrCreate must be idempotent")
	}
	if s.Get(42) != r {
		t.Fatal("Get must find created record")
	}
	if !r.Meta.RDLockOwner.IsNoOwner() {
		t.Fatal("fresh record must have a free RDLock")
	}
}

func TestPreload(t *testing.T) {
	s := NewStore(8)
	val := bytes.Repeat([]byte{0xAB}, 1024)
	s.Preload(1000, val)
	if s.Len() != 1000 {
		t.Fatalf("len = %d, want 1000", s.Len())
	}
	r := s.Get(999)
	if r == nil || !bytes.Equal(r.Value, val) {
		t.Fatal("preloaded value mismatch")
	}
	// Values must be independent copies.
	r.Value[0] = 0xCD
	if s.Get(0).Value[0] != 0xAB {
		t.Fatal("preload aliased value slices across records")
	}
}

func TestRangeVisitsAll(t *testing.T) {
	s := NewStore(4)
	s.Preload(100, []byte{1})
	seen := make(map[ddp.Key]bool)
	s.Range(func(r *Record) bool {
		seen[r.Key] = true
		return true
	})
	if len(seen) != 100 {
		t.Fatalf("range saw %d records, want 100", len(seen))
	}
	// Early termination.
	n := 0
	s.Range(func(*Record) bool { n++; return n < 10 })
	if n != 10 {
		t.Fatalf("range visited %d after early stop, want 10", n)
	}
}

func TestConcurrentGetOrCreate(t *testing.T) {
	s := NewStore(16)
	var wg sync.WaitGroup
	records := make([]*Record, 64)
	for g := 0; g < 64; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			records[g] = s.GetOrCreate(7) // everyone races on one key
		}()
	}
	wg.Wait()
	for _, r := range records {
		if r != records[0] {
			t.Fatal("concurrent GetOrCreate returned distinct records")
		}
	}
}

// Property: the shard router distributes and retrieves any key set
// consistently — what is put can always be got.
func TestPropertyStoreRetrieval(t *testing.T) {
	f := func(keys []uint64) bool {
		s := NewStore(8)
		for _, k := range keys {
			s.GetOrCreate(ddp.Key(k)).Value = []byte{byte(k)}
		}
		for _, k := range keys {
			r := s.Get(ddp.Key(k))
			if r == nil || r.Value[0] != byte(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkStoreGet(b *testing.B) {
	s := NewStore(64)
	s.Preload(100_000, make([]byte, 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Get(ddp.Key(i % 100_000))
	}
}
