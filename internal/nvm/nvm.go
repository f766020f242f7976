// Package nvm models the non-volatile memory subsystem of a MINOS node:
// a persist-latency model, a persist log applied to the durable
// database at group commit, and a pipelined drain engine (Pipeline)
// mirroring the paper's dFIFOs.
//
// The paper emulates NVM by charging 1295 ns to persist 1 KB (Table II);
// Fig 14 sweeps this latency from 100 ns (DIMM-attached persistent
// memory) to 100 µs (SSD blocks). Persists go through a log, which is
// what permits out-of-order persists: "entries are inserted into the
// log in an out-of-order manner, therefore creating obsolete entries.
// However, correctness is maintained because, before the log entries
// are applied to the non-volatile database, they are checked for
// obsoleteness" (§V-B.4, also §III-B). Here the pipeline's group commit
// is that apply: Log.Append runs the obsoleteness check and keeps one
// durable version per key.
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

// Entry is one key's durable version: the newest update applied to
// the log for that key.
type Entry struct {
	Seq   uint64 // sequence number of the append that applied it
	Key   ddp.Key
	TS    ddp.Timestamp
	Value []byte
	Scope ddp.ScopeID
}

// logShardCount stripes the log; power of two so the shard index is a
// mask of the key hash.
const logShardCount = 32

// Log is one node's non-volatile database, with the persist log applied
// to it as each group commit drains: every key holds only its newest
// durable version, so memory grows with the key count, not the write
// count. Appends are atomic and may arrive out of timestamp order; the
// obsoleteness check at apply drops an update no newer than the key's
// durable version. The log also serves recovery: EntriesSince streams
// the versions applied since a sequence number to a re-inserted node
// (§III-E).
//
// Storage is striped by key: each shard holds its own map under its own
// mutex, so concurrent appenders for different keys never contend.
// Sequence numbers come from one atomic counter but are assigned while
// the destination shard's lock is held, so a key's versions take
// increasing Seqs; the cold full views (EntriesSince, Replay) merge the
// shards into global Seq order.
type Log struct {
	nextSeq atomic.Uint64
	shards  [logShardCount]logShard
}

type logShard struct {
	mu sync.Mutex
	// db maps each key to its newest durable version. The version's
	// value buffer is the log's own and is overwritten in place by the
	// next newer version, so views copy values out under mu.
	db map[ddp.Key]*Entry
}

// NewLog returns an empty log.
func NewLog() *Log {
	l := &Log{}
	for i := range l.shards {
		l.shards[i].db = make(map[ddp.Key]*Entry)
	}
	return l
}

func (l *Log) shardIndex(key ddp.Key) uint64 {
	return key.Hash() >> 32 & (logShardCount - 1)
}

// Append applies an update for (key, ts, value) and returns its
// sequence number. Appends need not arrive in timestamp order: an
// update newer than the key's durable version replaces it, its value
// copied into that version's buffer, so the caller keeps ownership of
// its buffer and the steady state allocates nothing; an older or equal
// one is obsolete and dropped, though it still takes a sequence number
// and counts in Len. A key's first version takes the slow path.
//
//minos:hotpath
func (l *Log) Append(key ddp.Key, ts ddp.Timestamp, value []byte, scope ddp.ScopeID) uint64 {
	sh := &l.shards[l.shardIndex(key)]
	sh.mu.Lock()
	seq := l.nextSeq.Add(1) - 1
	switch e := sh.db[key]; {
	case e == nil:
		sh.insert(Entry{Seq: seq, Key: key, TS: ts, Value: value, Scope: scope})
	case e.TS.Less(ts):
		e.Seq, e.TS, e.Scope = seq, ts, scope
		e.Value = append(e.Value[:0], value...)
	}
	sh.mu.Unlock()
	return seq
}

// insert stores a key's first version with its own copy of the value;
// the caller holds sh.mu.
func (sh *logShard) insert(e Entry) {
	e.Value = append([]byte(nil), e.Value...)
	sh.db[e.Key] = &e
}

// Len returns the number of appends, superseded and obsolete ones
// included.
func (l *Log) Len() int { return int(l.nextSeq.Load()) }

// DurableTS returns the newest locally durable timestamp for key and
// whether any persist for key has happened.
func (l *Log) DurableTS(key ddp.Key) (ddp.Timestamp, bool) {
	sh := &l.shards[l.shardIndex(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e := sh.db[key]; e != nil {
		return e.TS, true
	}
	return ddp.Timestamp{}, false
}

// LocallyDurable reports whether an update at least as new as ts has been
// appended for key.
func (l *Log) LocallyDurable(key ddp.Key, ts ddp.Timestamp) bool {
	cur, ok := l.DurableTS(key)
	return ok && ts.LessEq(cur)
}

// EntriesSince returns each key's durable version applied at Seq >= seq,
// in Seq order, for shipping to a recovering node. Values are copies:
// a later Append does not change them.
func (l *Log) EntriesSince(seq uint64) []Entry {
	var out []Entry
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		for _, e := range sh.db {
			if e.Seq >= seq {
				c := *e
				c.Value = append([]byte(nil), e.Value...)
				out = append(out, c)
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// NextSeq returns the sequence number the next append will receive.
func (l *Log) NextSeq() uint64 { return l.nextSeq.Load() }

// Materialize returns the durable database: each key's newest version,
// with its value copied out. It is used by crash-replay tests.
func (l *Log) Materialize() map[ddp.Key]Entry {
	db := make(map[ddp.Key]Entry)
	for _, e := range l.EntriesSince(0) {
		db[e.Key] = e
	}
	return db
}

// Replay applies each key's durable version to apply, in Seq order, and
// returns how many it applied. Obsolete updates were dropped at Append,
// so there is nothing to skip.
func (l *Log) Replay(apply func(Entry)) int {
	entries := l.EntriesSince(0)
	for _, e := range entries {
		apply(e)
	}
	return len(entries)
}
