package nvm

import (
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"github.com/minos-ddp/minos/internal/ddp"
)

func TestLatencyModel(t *testing.T) {
	m := DefaultLatency
	if got := m.PersistNs(1024); got != 1295 {
		t.Fatalf("1KB persist = %dns, want 1295 (Table II)", got)
	}
	if got := m.PersistNs(2048); got != 2590 {
		t.Fatalf("2KB persist = %dns, want 2590", got)
	}
	// Sub-KB persists round up: the device writes at least a unit.
	if got := m.PersistNs(64); got != 81 {
		t.Fatalf("64B persist = %dns, want 81 (ceil of 64/1024*1295)", got)
	}
	fixed := LatencyModel{NsPerKB: 1000, FixedNs: 500}
	if got := fixed.PersistNs(1024); got != 1500 {
		t.Fatalf("fixed+bw = %dns, want 1500", got)
	}
}

func ts(n, v int) ddp.Timestamp {
	return ddp.Timestamp{Node: ddp.NodeID(n), Version: ddp.Version(v)}
}

// TestAppendTracksDurable: an update older than, or as old as, the
// key's durable version is dropped at apply — the newer value and its
// DurableTS stay — but still takes a sequence number and counts in Len.
func TestAppendTracksDurable(t *testing.T) {
	l := NewLog()
	l.Append(1, ts(0, 1), []byte("a"), 0)
	l.Append(1, ts(0, 3), []byte("c"), 0)
	l.Append(1, ts(0, 2), []byte("b"), 0) // out-of-order append: allowed
	if seq := l.Append(1, ts(0, 3), []byte("dup"), 0); seq != 3 {
		t.Fatalf("obsolete append got seq %d, want 3", seq)
	}

	if got, _ := l.DurableTS(1); got != ts(0, 3) {
		t.Fatalf("durable ts = %v, want <0,3>", got)
	}
	if !l.LocallyDurable(1, ts(0, 2)) {
		t.Error("ts <0,2> should be durable (newer version logged)")
	}
	if l.LocallyDurable(1, ts(0, 4)) {
		t.Error("ts <0,4> is not durable yet")
	}
	if l.LocallyDurable(2, ts(0, 1)) {
		t.Error("unlogged key is not durable")
	}
	if got := l.Materialize()[1]; string(got.Value) != "c" || got.Seq != 1 {
		t.Fatalf("key 1 holds %q at seq %d, want \"c\" at seq 1", got.Value, got.Seq)
	}
	if l.Len() != 4 {
		t.Fatalf("len = %d, want 4: every append counts", l.Len())
	}
}

func TestMaterializeFiltersObsolete(t *testing.T) {
	l := NewLog()
	l.Append(5, ts(0, 2), []byte("new"), 0)
	l.Append(5, ts(0, 1), []byte("old"), 0) // obsolete entry in log
	l.Append(6, ts(1, 1), []byte("x"), 0)

	db := l.Materialize()
	if string(db[5].Value) != "new" {
		t.Fatalf("key 5 materialized %q, want \"new\"", db[5].Value)
	}
	if string(db[6].Value) != "x" {
		t.Fatal("key 6 missing")
	}
}

func TestReplaySkipsObsolete(t *testing.T) {
	l := NewLog()
	l.Append(1, ts(0, 2), []byte("v2"), 0)
	l.Append(1, ts(0, 1), []byte("v1"), 0) // must be skipped
	l.Append(2, ts(0, 1), []byte("w1"), 0)

	var applied []Entry
	n := l.Replay(func(e Entry) { applied = append(applied, e) })
	if n != 2 {
		t.Fatalf("replayed %d entries, want 2", n)
	}
	final := map[ddp.Key]string{}
	for _, e := range applied {
		final[e.Key] = string(e.Value)
	}
	if final[1] != "v2" || final[2] != "w1" {
		t.Fatalf("final state %v", final)
	}
}

func TestEntriesSince(t *testing.T) {
	l := NewLog()
	for i := 0; i < 10; i++ {
		l.Append(ddp.Key(i), ts(0, 1), nil, 0)
	}
	tail := l.EntriesSince(7)
	if len(tail) != 3 {
		t.Fatalf("tail length %d, want 3", len(tail))
	}
	if tail[0].Seq != 7 || tail[2].Seq != 9 {
		t.Fatalf("tail seqs %d..%d, want 7..9", tail[0].Seq, tail[2].Seq)
	}
	if got := l.NextSeq(); got != 10 {
		t.Fatalf("next seq %d, want 10", got)
	}
}

func TestAppendCopiesValue(t *testing.T) {
	l := NewLog()
	v := []byte("mutable")
	l.Append(1, ts(0, 1), v, 0)
	v[0] = 'X'
	if string(l.EntriesSince(0)[0].Value) != "mutable" {
		t.Fatal("log aliased the caller's value slice")
	}
}

// Property: for any interleaving of appends, Materialize returns, for
// every key, the entry with the newest timestamp ever appended.
func TestPropertyMaterializeNewestWins(t *testing.T) {
	f := func(raw []uint8) bool {
		l := NewLog()
		want := map[ddp.Key]ddp.Timestamp{}
		for i, r := range raw {
			key := ddp.Key(r % 4)
			t := ts(int(r%3), i%7+1)
			l.Append(key, t, []byte{r}, 0)
			if cur, ok := want[key]; !ok || cur.Less(t) {
				want[key] = t
			}
		}
		db := l.Materialize()
		if len(db) != len(want) {
			return false
		}
		for k, wts := range want {
			if db[k].TS != wts {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: replay applies entries in nondecreasing-newest order per key:
// after replay the last applied entry per key carries that key's newest
// timestamp.
func TestPropertyReplayConverges(t *testing.T) {
	f := func(raw []uint8) bool {
		l := NewLog()
		for i, r := range raw {
			l.Append(ddp.Key(r%3), ts(int(r%2), i%5+1), nil, 0)
		}
		last := map[ddp.Key]ddp.Timestamp{}
		l.Replay(func(e Entry) { last[e.Key] = e.TS })
		want := l.Materialize()
		for k, e := range want {
			if last[k] != e.TS {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestAppendOverwriteAllocatesNothing: once a key has a durable
// version, a newer same-size value is copied into that version's buffer,
// so the steady-state apply allocates nothing.
func TestAppendOverwriteAllocatesNothing(t *testing.T) {
	l := NewLog()
	val := make([]byte, 128)
	v := 1
	l.Append(1, ts(0, v), val, 0)
	if allocs := testing.AllocsPerRun(1000, func() {
		v++
		l.Append(1, ts(0, v), val, 0)
	}); allocs != 0 {
		t.Fatalf("overwriting an existing key allocated %.1f times per append, want 0", allocs)
	}
}

// TestFirstTouchAllocatesLittle: the first appends of 1,024 keys into a
// fresh log allocate what those keys' versions need, not whole
// preallocated segments or arena chunks per shard.
func TestFirstTouchAllocatesLittle(t *testing.T) {
	const keys, limit = 1024, 1 << 20
	l := NewLog()
	val := make([]byte, 128)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < keys; k++ {
		l.Append(ddp.Key(k), ts(0, 1), val, 0)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("first appends of %d keys allocated %d B", keys, got)
	if got >= limit {
		t.Fatalf("first appends of %d keys allocated %d B, want < %d", keys, got, limit)
	}
}

// TestViewsAreCopies: a value returned by EntriesSince or Materialize is
// the caller's; a later Append of that key, which overwrites the log's
// buffer in place, does not change it.
func TestViewsAreCopies(t *testing.T) {
	l := NewLog()
	l.Append(1, ts(0, 1), []byte("first"), 0)
	since := l.EntriesSince(0)
	db := l.Materialize()
	l.Append(1, ts(0, 2), []byte("later"), 0)
	if got := string(since[0].Value); got != "first" {
		t.Fatalf("EntriesSince value became %q after a later append", got)
	}
	if got := string(db[1].Value); got != "first" {
		t.Fatalf("Materialize value became %q after a later append", got)
	}
	if got := string(l.EntriesSince(0)[0].Value); got != "later" {
		t.Fatalf("log holds %q, want the later value", got)
	}
}

// TestEntriesSinceNewestPerKey: EntriesSince returns each key's newest
// version applied at or after seq, in Seq order; superseded and
// obsolete appends are gone.
func TestEntriesSinceNewestPerKey(t *testing.T) {
	l := NewLog()
	l.Append(1, ts(0, 1), []byte("a1"), 0) // seq 0, superseded by seq 2
	l.Append(2, ts(0, 1), []byte("b1"), 0) // seq 1
	l.Append(1, ts(0, 2), []byte("a2"), 0) // seq 2
	l.Append(3, ts(0, 1), []byte("c1"), 0) // seq 3
	l.Append(2, ts(0, 0), []byte("b0"), 0) // seq 4, obsolete
	type row struct {
		seq uint64
		key ddp.Key
		val string
	}
	for _, tc := range []struct {
		since uint64
		want  []row
	}{
		{0, []row{{1, 2, "b1"}, {2, 1, "a2"}, {3, 3, "c1"}}},
		{2, []row{{2, 1, "a2"}, {3, 3, "c1"}}},
		{4, nil},
	} {
		var got []row
		for _, e := range l.EntriesSince(tc.since) {
			got = append(got, row{e.Seq, e.Key, string(e.Value)})
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("EntriesSince(%d) = %v, want %v", tc.since, got, tc.want)
		}
	}
}
