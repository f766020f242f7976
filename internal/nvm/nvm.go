// Package nvm models the non-volatile memory subsystem of a MINOS node:
// a persist-latency model, an append-only persistent log, and a
// pipelined drain engine (Pipeline) mirroring the paper's dFIFOs.
//
// The paper emulates NVM by charging 1295 ns to persist 1 KB (Table II);
// Fig 14 sweeps this latency from 100 ns (DIMM-attached persistent
// memory) to 100 µs (SSD blocks). Writes append to a log rather than
// updating the durable database in place, which is what permits
// out-of-order persists: "entries are inserted into the log in an
// out-of-order manner, therefore creating obsolete entries. However,
// correctness is maintained because, before the log entries are applied
// to the non-volatile database, they are checked for obsoleteness"
// (§V-B.4, also §III-B).
package nvm

import (
	"sort"
	"sync"
	"sync/atomic"

	"github.com/minos-ddp/minos/internal/ddp"
)

// LatencyModel converts a persist size into a simulated latency.
type LatencyModel struct {
	// NsPerKB is the nanoseconds charged per kilobyte persisted.
	// The paper's default is 1295 ns/KB.
	NsPerKB int64
	// FixedNs is a per-operation floor, charged even for tiny persists
	// (device command overhead).
	FixedNs int64
}

// DefaultLatency is the paper's emulated NVM: 1295 ns per KB.
var DefaultLatency = LatencyModel{NsPerKB: 1295}

// PersistNs returns the modeled latency to persist size bytes.
func (m LatencyModel) PersistNs(size int) int64 {
	ns := m.FixedNs + (int64(size)*m.NsPerKB+1023)/1024
	if ns < m.FixedNs {
		ns = m.FixedNs
	}
	return ns
}

// Entry is one record update in the persistent log.
type Entry struct {
	Seq   uint64 // log sequence number, assigned at append
	Key   ddp.Key
	TS    ddp.Timestamp
	Value []byte
	Scope ddp.ScopeID
}

// logShardCount stripes the log; power of two so the shard index is a
// mask of the key hash.
const logShardCount = 32

// Log is the append-only persistent log of one node. Appends are atomic
// and may arrive out of timestamp order; Apply filters obsolete entries.
// The log also serves recovery: EntriesSince streams the tail to a
// re-inserted node (§III-E).
//
// Storage is striped by key: each shard holds its own segmented entry
// store and durable map under its own mutex, so concurrent appenders
// for different keys never contend. Sequence numbers come from one
// atomic counter but are assigned while the destination shard's lock is
// held, so each shard's entries stay sorted by Seq; the cold full-log
// views (EntriesSince, Replay) merge the shards back into global Seq
// order.
type Log struct {
	nextSeq atomic.Uint64
	shards  [logShardCount]logShard
}

type logShard struct {
	mu sync.Mutex

	// Entries are stored in fixed-capacity segments: active is the tail
	// being appended to, sealed holds the full segments before it, in
	// order. A flat slice would re-zero and copy the entire log on every
	// growth doubling — on a long run that single append line dominated
	// the write path's CPU profile. Segments are allocated once, never
	// copied, and never moved.
	sealed [][]Entry
	active []Entry

	// arena backs the value copies made by Append: values bump-allocate
	// out of fixed-size chunks so the steady-state append path performs
	// no per-entry heap allocation. Chunks stay reachable through the
	// entries that reference them — the same total footprint individual
	// copies would have, minus the per-copy allocator visit.
	arena []byte

	// durable tracks, per key, the newest timestamp present in the log —
	// i.e. locally durable. The model checker and the protocol's
	// PersistencySpin consult this.
	durable map[ddp.Key]ddp.Timestamp
}

// segEntries is the capacity of one log segment. At ~64 bytes per
// Entry a segment is a few hundred KB — large enough that seals are
// rare, small enough that an idle shard costs nothing until first use.
const segEntries = 4096

// appendEntry adds e to the shard in Seq order; the caller holds sh.mu
// and must have assigned e.Seq under it. The segment seal (the only
// allocation) lives in the unannotated slow path.
//
//minos:hotpath
func (sh *logShard) appendEntry(e Entry) {
	if len(sh.active) == cap(sh.active) {
		sh.sealSegment()
	}
	sh.active = append(sh.active, e)
}

// sealSegment retires the full active segment and starts a fresh one.
// Also handles the shard's very first append (nil active).
func (sh *logShard) sealSegment() {
	if sh.active != nil {
		sh.sealed = append(sh.sealed, sh.active)
	}
	sh.active = make([]Entry, 0, segEntries)
}

// forEach visits every entry in append (= per-shard Seq) order; the
// caller holds sh.mu.
func (sh *logShard) forEach(f func(Entry)) {
	for _, seg := range sh.sealed {
		for _, e := range seg {
			f(e)
		}
	}
	for _, e := range sh.active {
		f(e)
	}
}

// count returns the shard's entry count; the caller holds sh.mu.
func (sh *logShard) count() int {
	n := len(sh.active)
	for _, seg := range sh.sealed {
		n += len(seg)
	}
	return n
}

// arenaChunk is the shard arena's chunk size. Values larger than a
// quarter chunk are copied individually rather than wasting most of a
// fresh chunk.
const arenaChunk = 64 << 10

// copyToArena copies v into the shard's bump arena; the caller holds
// sh.mu. The refill and the oversized-value escape live in the
// unannotated slow path.
//
//minos:hotpath
func (sh *logShard) copyToArena(v []byte) []byte {
	if len(v) == 0 {
		return nil
	}
	n := len(sh.arena)
	if n+len(v) > cap(sh.arena) {
		return sh.copyToArenaSlow(v)
	}
	sh.arena = sh.arena[:n+len(v)]
	copy(sh.arena[n:], v)
	return sh.arena[n : n+len(v) : n+len(v)]
}

// copyToArenaSlow starts a fresh chunk (or, for oversized values, makes
// an individual copy). The abandoned tail of the previous chunk is
// bounded waste: at most a quarter chunk per refill.
func (sh *logShard) copyToArenaSlow(v []byte) []byte {
	if len(v) > arenaChunk/4 {
		return append([]byte(nil), v...)
	}
	sh.arena = make([]byte, len(v), arenaChunk)
	copy(sh.arena, v)
	return sh.arena[0:len(v):len(v)]
}

// NewLog returns an empty log.
func NewLog() *Log {
	l := &Log{}
	for i := range l.shards {
		l.shards[i].durable = make(map[ddp.Key]ddp.Timestamp)
	}
	return l
}

func (l *Log) shardIndex(key ddp.Key) uint64 {
	return key.Hash() >> 32 & (logShardCount - 1)
}

// Append atomically adds an entry for (key, ts, value) and returns its
// sequence number. Appends need not arrive in timestamp order. The
// value is copied into the shard's arena, so the caller keeps ownership
// of its buffer and the steady-state append allocates nothing.
//
//minos:hotpath
func (l *Log) Append(key ddp.Key, ts ddp.Timestamp, value []byte, scope ddp.ScopeID) uint64 {
	sh := &l.shards[l.shardIndex(key)]
	sh.mu.Lock()
	owned := sh.copyToArena(value)
	seq := l.nextSeq.Add(1) - 1
	sh.appendEntry(Entry{Seq: seq, Key: key, TS: ts, Value: owned, Scope: scope})
	if cur, ok := sh.durable[key]; !ok || cur.Less(ts) {
		sh.durable[key] = ts
	}
	sh.mu.Unlock()
	return seq
}

// Len returns the number of log entries.
func (l *Log) Len() int {
	n := 0
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		n += sh.count()
		sh.mu.Unlock()
	}
	return n
}

// DurableTS returns the newest locally durable timestamp for key and
// whether any persist for key has happened.
func (l *Log) DurableTS(key ddp.Key) (ddp.Timestamp, bool) {
	sh := &l.shards[l.shardIndex(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ts, ok := sh.durable[key]
	return ts, ok
}

// LocallyDurable reports whether an update at least as new as ts has been
// appended for key.
func (l *Log) LocallyDurable(key ddp.Key, ts ddp.Timestamp) bool {
	cur, ok := l.DurableTS(key)
	return ok && ts.LessEq(cur)
}

// EntriesSince returns a copy of all entries with Seq >= seq in global
// sequence order, for shipping to a recovering node.
func (l *Log) EntriesSince(seq uint64) []Entry {
	var out []Entry
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		sh.forEach(func(e Entry) {
			if e.Seq >= seq {
				out = append(out, e)
			}
		})
		sh.mu.Unlock()
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// NextSeq returns the sequence number the next append will receive.
func (l *Log) NextSeq() uint64 { return l.nextSeq.Load() }

// Materialize folds the log into the newest durable value per key,
// filtering obsolete entries — the "apply to the non-volatile database"
// step. It is used by recovery and by crash-replay tests.
func (l *Log) Materialize() map[ddp.Key]Entry {
	db := make(map[ddp.Key]Entry)
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		sh.forEach(func(e Entry) {
			if cur, ok := db[e.Key]; !ok || cur.TS.Less(e.TS) {
				db[e.Key] = e
			}
		})
		sh.mu.Unlock()
	}
	return db
}

// Replay applies every log entry to apply in sequence order. Obsolete
// entries (superseded by a newer timestamp for the same key) are skipped.
// It returns how many entries were applied.
func (l *Log) Replay(apply func(Entry)) int {
	entries := l.EntriesSince(0)
	applied := 0
	newest := make(map[ddp.Key]ddp.Timestamp)
	for _, e := range entries {
		if cur, ok := newest[e.Key]; ok && e.TS.Less(cur) {
			continue // obsolete: a newer version is already durable
		}
		newest[e.Key] = e.TS
		apply(e)
		applied++
	}
	return applied
}
