// Package kv implements MINOS-KV, the replicated in-memory key-value
// store the paper builds to carry its metadata format (§VII, "Workloads
// Used"). The back-end is a hashtable; every record carries the DDP
// metadata of Fig 1(a). Every node holds a replica of every record.
//
// The store is used by both runtimes. The simulated runtime accesses it
// single-threaded (the kernel serializes processes), while the live
// runtime locks per record; Record therefore embeds a mutex, which in
// the live runtime is also the paper's WRLock (every local write to the
// record happens in one hold of it), and a short list of waiters, the
// live form of the paper's spin primitives: an operation that must wait
// for the record's metadata parks a plain value here, and whoever
// changes that metadata fires it.
//
// Since the lock-free read path (DESIGN.md D12) the live runtime has a
// second access discipline layered on top: every value publication goes
// through Publish/SetValue, which maintain a per-record seqlock (an
// atomic sequence word bumped odd/even around the mutation) and an
// atomic word-buffer copy of the value, so readers can copy a
// consistent value without the mutex; and the store's shard maps are
// immutable published snapshots plus a small insert overflow, so
// lookups of settled records never take a lock.
package kv

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/minos-ddp/minos/internal/ddp"
)

// valWords is one immutable-capacity backing buffer for a record's
// published value. The words are written and read with atomic
// operations — that is what makes the seqlock's intentional races
// well-defined under the Go memory model (and invisible to the race
// detector): a torn read can only mix values from two publications,
// and the sequence recheck rejects exactly those.
type valWords struct {
	w []atomic.Uint64
}

// Record is one key's replica on one node: the value bytes plus the DDP
// metadata. Lock-protected for the live runtime; the simulator, which is
// single-threaded by construction, pays no contention.
//
// The seqlock fields (seq, blocked, vlen, words) are maintained by
// Publish/SetValue and the RDLock wrappers; the write side always runs
// under mu, the read side (ReadInto) never does. Value remains a plain
// under-mutex copy of the newest published value, kept for the slow
// read path and the single-threaded simulator.
type Record struct {
	mu sync.Mutex

	Key   ddp.Key
	Value []byte
	Meta  ddp.Meta

	// seq is the seqlock word: odd while a publication is in flight.
	seq atomic.Uint64
	// blocked mirrors Meta.RDLocked() for the lock-free read path: it
	// is set true by SnatchRDLock strictly before the new value is
	// published and false only when the lock is released, so a reader
	// that observes blocked == false with a stable sequence can never
	// have copied a value whose §III-D read stall is still pending.
	blocked atomic.Bool
	// vlen is the published value length; -1 until the first Publish.
	vlen atomic.Int64
	// words points at the atomic word buffer holding the published
	// value. Replaced (never resized in place) when capacity grows.
	words atomic.Pointer[valWords]

	// waiters are the operations parked on the record, guarded by mu;
	// nwaiters mirrors their count for Parked, which reads it without mu.
	waiters  []Waiter
	nwaiters atomic.Int32
}

// Until is the condition a Waiter waits for.
type Until uint8

const (
	UntilUnlocked   Until = iota // the RDLock is free: the §III-D read stall
	UntilConsistent              // Obs is consistent: ConsistencySpin (Fig 2 L6, L28)
	UntilDurable                 // Obs is durable: PersistencySpin (Fig 2 L7, L29)
)

// Waiter is one operation parked on a record until the record's
// metadata satisfies Until for the superseding write Obs. It is a plain
// value that the record keeps under its lock until Fire hands it back.
// The other fields are the operation's own state, which the store
// carries but never reads: its write (TS, Scope), the node it answers
// (an INV's coordinator, or a remote client, with its request id), and
// a session caller's completion, of the owner's type.
type Waiter struct {
	Until  Until
	Obs    ddp.Timestamp
	TS     ddp.Timestamp
	Scope  ddp.ScopeID
	To     ddp.NodeID
	Client uint64
	Reply  any
}

// newRecord returns an initialized record for key.
func newRecord(key ddp.Key) *Record {
	r := &Record{Key: key, Meta: ddp.NewMeta()}
	r.vlen.Store(-1)
	return r
}

// Lock acquires the record's mutex (live runtime only).
func (r *Record) Lock() { r.mu.Lock() }

// Unlock releases the record's mutex.
func (r *Record) Unlock() { r.mu.Unlock() }

// Park registers w, whose condition the caller found false; the caller
// holds the record lock, and every later change of the metadata that
// can satisfy it is followed by Fire. Left unannotated: the append is
// the list's only allocation, and only when it grows.
func (r *Record) Park(w Waiter) {
	r.waiters = append(r.waiters, w)
	r.nwaiters.Store(int32(len(r.waiters)))
}

// Parked reports how many waiters the record holds. It takes no lock:
// a caller that changed the metadata under the lock and reads zero
// after releasing it has nothing to fire, because a waiter parked after
// the change was checked against it.
func (r *Record) Parked() int { return int(r.nwaiters.Load()) }

// Fire moves every waiter whose condition now holds — every waiter,
// when all is set (a closing node ends them all) — from the record onto
// ready and returns it; the rest stay parked, in order. The caller
// holds the record lock and acts on ready once it has released it.
func (r *Record) Fire(ready []Waiter, all bool) []Waiter {
	kept := r.waiters[:0]
	for _, w := range r.waiters {
		if all || r.holds(w) {
			ready = append(ready, w)
		} else {
			kept = append(kept, w)
		}
	}
	clear(r.waiters[len(kept):]) // drop the fired waiters' references
	r.waiters = kept
	r.nwaiters.Store(int32(len(kept)))
	return ready
}

func (r *Record) holds(w Waiter) bool {
	switch w.Until {
	case UntilUnlocked:
		return !r.Meta.RDLocked()
	case UntilConsistent:
		return r.Meta.ConsistencyDone(w.Obs)
	default:
		return r.Meta.PersistencyDone(w.Obs)
	}
}

// SnatchRDLock is the paper's "Snatch RDLock" (§III-B) through the
// seqlock's blocked mirror: the mirror is raised before the metadata
// changes (and therefore strictly before the value publication that
// follows under the same critical section), closing the window in
// which a lock-free reader could observe the new value without the
// read stall. The caller holds the record lock.
//
//minos:hotpath
func (r *Record) SnatchRDLock(ts ddp.Timestamp) ddp.SnatchOutcome {
	r.blocked.Store(true)
	return r.Meta.SnatchRDLock(ts)
}

// ReleaseRDLockIfOwner releases the RDLock if ts still owns it,
// lowering the blocked mirror when it does. The caller holds the
// record lock.
//
//minos:hotpath
func (r *Record) ReleaseRDLockIfOwner(ts ddp.Timestamp) bool {
	rel := r.Meta.ReleaseRDLockIfOwner(ts)
	if rel {
		r.blocked.Store(false)
	}
	return rel
}

// ForceReleaseRDLock unconditionally frees the RDLock — the failure
// detector's path for writes whose coordinator died and whose VAL will
// never arrive. The caller holds the record lock.
func (r *Record) ForceReleaseRDLock() {
	r.Meta.RDLockOwner = ddp.NoOwner
	r.blocked.Store(false)
}

// Publish installs value v and volatile timestamp ts as one seqlock
// write-side critical section: sequence goes odd, the atomic word copy
// and the under-mutex Value/Meta update happen, sequence goes even.
// The caller holds the record lock and has already passed the
// obsoleteness checks (ApplyVolatile panics on a backwards move).
//
//minos:hotpath
func (r *Record) Publish(v []byte, ts ddp.Timestamp) {
	r.seq.Add(1)
	r.storeWords(v)
	r.Value = append(r.Value[:0], v...)
	r.vlen.Store(int64(len(v)))
	r.Meta.ApplyVolatile(ts)
	r.seq.Add(1)
}

// Published reports whether the record holds a value (possibly
// empty): false until its first Publish or SetValue.
func (r *Record) Published() bool { return r.vlen.Load() >= 0 }

// SetValue is Publish without a timestamp move — initialization paths
// (Preload) that install bytes without driving the DDP metadata.
// The caller holds the record lock.
func (r *Record) SetValue(v []byte) {
	r.seq.Add(1)
	r.storeWords(v)
	r.Value = append(r.Value[:0], v...)
	r.vlen.Store(int64(len(v)))
	r.seq.Add(1)
}

// storeWords copies v into the record's atomic word buffer; the caller
// holds the record lock and has already made the sequence odd. The
// capacity grow (the only allocation) lives in the unannotated slow
// path.
//
//minos:hotpath
func (r *Record) storeWords(v []byte) {
	vw := r.words.Load()
	need := (len(v) + 7) / 8
	if vw == nil || need > len(vw.w) {
		vw = r.growWords(need)
	}
	i := 0
	for ; i+8 <= len(v); i += 8 {
		vw.w[i/8].Store(binary.LittleEndian.Uint64(v[i:]))
	}
	if i < len(v) {
		var tail [8]byte
		copy(tail[:], v[i:])
		vw.w[i/8].Store(binary.LittleEndian.Uint64(tail[:]))
	}
}

// growWords replaces the word buffer with a larger one. Readers that
// raced the swap still hold the old buffer; their sequence recheck
// sends them around again.
func (r *Record) growWords(need int) *valWords {
	vw := &valWords{w: make([]atomic.Uint64, need+need/2+4)}
	r.words.Store(vw)
	return vw
}

// seqlockRetries bounds the optimistic read loop: a reader that keeps
// losing the race against publications (odd sequence or a moved
// sequence after the copy) falls back to the mutex path rather than
// spinning unboundedly against a write-heavy record.
const seqlockRetries = 8

// ReadInto is the lock-free read fast path: copy the published value
// into buf (reusing its capacity; growing it only when too small) and
// return the filled slice. ok is false when the caller must take the
// mutex slow path instead — the record is RDLocked by an in-flight
// write (the §III-D read stall) or the retry budget ran out. A nil
// value with ok == true means the record has never been published.
//
//minos:hotpath
func (r *Record) ReadInto(buf []byte) (v []byte, ok bool) {
	for attempt := 0; attempt < seqlockRetries; attempt++ {
		s := r.seq.Load()
		if s&1 != 0 {
			continue // publication in flight; go around
		}
		if r.blocked.Load() {
			return nil, false // RDLocked: the read must stall
		}
		n := int(r.vlen.Load())
		if n < 0 {
			if r.seq.Load() != s {
				continue
			}
			return nil, true // never published
		}
		vw := r.words.Load()
		if vw == nil || len(vw.w)*8 < n {
			continue // racing a capacity grow; go around
		}
		if cap(buf) < n {
			buf = growBuf(buf, n)
		}
		if buf == nil {
			buf = noValue[:0:0] // an empty value is not a missing one
		}
		buf = buf[:n]
		i := 0
		for ; i+8 <= n; i += 8 {
			binary.LittleEndian.PutUint64(buf[i:], vw.w[i/8].Load())
		}
		if i < n {
			var tail [8]byte
			binary.LittleEndian.PutUint64(tail[:], vw.w[i/8].Load())
			copy(buf[i:], tail[:n-i])
		}
		if r.seq.Load() == s {
			return buf, true
		}
	}
	return nil, false
}

// noValue backs the empty, non-nil result of reading an empty value
// into a nil buffer.
var noValue [1]byte

// growBuf returns a buffer of at least capacity n, preserving nothing
// (the caller overwrites the contents). Kept off the annotated fast
// path: it only runs when the caller's buffer is too small.
func growBuf(buf []byte, n int) []byte {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]byte, n)
}

// Store is a node's full replica set: a sharded hashtable of records.
// Each shard publishes an immutable map through an atomic pointer;
// lookups of published records are wait-free loads. Inserts land in a
// small mutable overflow map under the shard mutex and are merged into
// a new published map geometrically (once the overflow reaches a
// fraction of the published size), so the per-insert cost is amortized
// O(1) — cloning the whole map on every insert would make a workload
// that keeps touching fresh keys quadratic in the shard size. Until
// the next merge a just-inserted record is served from the overflow
// map under the mutex.
type Store struct {
	shards []*shard
	mask   uint64
}

type shard struct {
	mu   sync.Mutex // guards over and map publications
	m    atomic.Pointer[map[ddp.Key]*Record]
	over map[ddp.Key]*Record // inserts not yet merged; disjoint from *m
}

func newShard() *shard {
	sh := &shard{over: make(map[ddp.Key]*Record)}
	m := make(map[ddp.Key]*Record)
	sh.m.Store(&m)
	return sh
}

// NewStore returns an empty store. shardCount is rounded up to a power
// of two; pass 1 for the simulator (no concurrency) and a larger value
// (for example 64) for the live runtime.
func NewStore(shardCount int) *Store {
	n := 1
	for n < shardCount {
		n <<= 1
	}
	s := &Store{shards: make([]*shard, n), mask: uint64(n - 1)}
	for i := range s.shards {
		s.shards[i] = newShard()
	}
	return s
}

func (s *Store) shardIndex(key ddp.Key) uint64 {
	// Fibonacci hashing spreads dense keys across shards.
	return key.Hash() >> 32 & s.mask
}

func (s *Store) shardFor(key ddp.Key) *shard {
	return s.shards[s.shardIndex(key)]
}

// Get returns the record for key, or nil if it has never been written or
// preloaded. Wait-free for published records: one atomic load and one
// lookup in an immutable map. Only a miss falls through to the shard
// mutex to check the not-yet-merged overflow inserts.
//
//minos:hotpath
func (s *Store) Get(key ddp.Key) *Record {
	sh := s.shardFor(key)
	if r := (*sh.m.Load())[key]; r != nil {
		return r
	}
	return sh.slowGet(key)
}

// slowGet serves lookups of records inserted since the last merge. It
// re-reads the published map under the mutex: a merge (GetOrCreate, or
// Range's view) between the caller's lock-free miss and this lock moves
// the key out of the overflow and into the map.
func (sh *shard) slowGet(key ddp.Key) *Record {
	sh.mu.Lock()
	r := sh.over[key]
	if r == nil {
		r = (*sh.m.Load())[key]
	}
	sh.mu.Unlock()
	return r
}

// overMergeMin is the overflow size below which a shard never merges;
// the threshold then scales with the published map so the total copy
// work over n inserts stays linear.
const overMergeMin = 32

// GetOrCreate returns the record for key, creating it if absent. New
// records go to the shard's overflow map; the published map is rebuilt
// only when the overflow has grown past a fraction of it.
func (s *Store) GetOrCreate(key ddp.Key) *Record {
	sh := s.shardFor(key)
	if r := (*sh.m.Load())[key]; r != nil {
		return r
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	base := *sh.m.Load()
	if r := base[key]; r != nil {
		return r
	}
	if r := sh.over[key]; r != nil {
		return r
	}
	r := newRecord(key)
	sh.over[key] = r
	if len(sh.over) >= overMergeMin+len(base)/4 {
		sh.mergeLocked(base)
	}
	return r
}

// mergeLocked publishes base ∪ over as a fresh immutable map and
// resets the overflow. The caller holds the shard mutex.
func (sh *shard) mergeLocked(base map[ddp.Key]*Record) {
	next := make(map[ddp.Key]*Record, len(base)+len(sh.over))
	for k, v := range base {
		next[k] = v
	}
	for k, v := range sh.over {
		next[k] = v
	}
	sh.m.Store(&next)
	sh.over = make(map[ddp.Key]*Record)
}

// view returns the shard's complete record map, merging any pending
// overflow inserts first so the caller can iterate it with no lock
// held.
func (sh *shard) view() map[ddp.Key]*Record {
	sh.mu.Lock()
	if len(sh.over) > 0 {
		sh.mergeLocked(*sh.m.Load())
	}
	m := sh.m.Load()
	sh.mu.Unlock()
	return *m
}

// Len returns the number of records in the store.
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(*sh.m.Load()) + len(sh.over)
		sh.mu.Unlock()
	}
	return n
}

// Preload inserts count records keyed 0..count-1, each with a copy of
// value and version-zero metadata. It reproduces the paper's database
// initialization (100,000 records of 1 KB per node). Each shard's map
// is cloned once for the whole batch, not once per key.
func (s *Store) Preload(count int, value []byte) {
	perShard := make([][]ddp.Key, len(s.shards))
	for i := 0; i < count; i++ {
		k := ddp.Key(i)
		si := s.shardIndex(k)
		perShard[si] = append(perShard[si], k)
	}
	var created []*Record
	for si, keys := range perShard {
		if len(keys) == 0 {
			continue
		}
		sh := s.shards[si]
		sh.mu.Lock()
		old := *sh.m.Load()
		next := make(map[ddp.Key]*Record, len(old)+len(sh.over)+len(keys))
		for k, v := range old {
			next[k] = v
		}
		for k, v := range sh.over {
			next[k] = v
		}
		for _, k := range keys {
			r := next[k]
			if r == nil {
				r = newRecord(k)
				next[k] = r
			}
			created = append(created, r)
		}
		sh.m.Store(&next)
		sh.over = make(map[ddp.Key]*Record)
		sh.mu.Unlock()
	}
	// Values are installed after the shard publication, outside the
	// shard mutex: record locks never nest inside shard locks.
	for _, r := range created {
		r.Lock()
		r.SetValue(value)
		r.Unlock()
	}
}

// Range calls fn for every record until fn returns false. Each shard's
// pending inserts are merged into its published map up front, and
// iteration then walks that immutable snapshot — fn runs with no store
// locks held, so it may lock records, block, or call back into the
// store freely. Records inserted concurrently may or may not be
// visited.
func (s *Store) Range(fn func(*Record) bool) {
	for _, sh := range s.shards {
		for _, r := range sh.view() {
			if !fn(r) {
				return
			}
		}
	}
}

func (s *Store) String() string {
	return fmt.Sprintf("kv.Store{records: %d, shards: %d}", s.Len(), len(s.shards))
}
