package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"

	"github.com/minos-ddp/minos/internal/obs"
)

// span is one traced interval. Times are ns from the log's start. Parent
// is the ID of the span that caused this one (0 for a root); spans of
// one driver operation share Op.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     uint64 `json:"op,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps a traced run's spans in memory, in a buffer sized up
// front so that recording never allocates; it is written out once, when
// the run ends. Spans beyond the buffer are counted, not kept.
type spanLog struct {
	buf     []span
	n       atomic.Uint64
	ids     atomic.Uint64
	dropped atomic.Uint64
	// root is the whole run's span; round is the one driver operations
	// hang under.
	root  uint64
	round atomic.Uint64
}

func newSpanLog(capacity int) *spanLog {
	l := &spanLog{buf: make([]span, capacity)}
	l.root = l.ids.Add(1)
	return l
}

// put records one span under a fresh ID and returns the ID.
func (l *spanLog) put(parent uint64, name string, start, end int64) uint64 {
	id := l.ids.Add(1)
	l.store(span{ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

func (l *spanLog) store(s span) {
	i := l.n.Add(1) - 1
	if i >= uint64(len(l.buf)) {
		l.dropped.Add(1)
		return
	}
	l.buf[i] = s
}

// op records one driver operation: the whole of it from its intended
// time, and under that how late the driver sent it and how long the
// cluster took to answer.
func (l *spanLog) op(write bool, intended, sent, done int64) {
	name := "op.read"
	if write {
		name = "op.write"
	}
	id := l.ids.Add(1)
	l.store(span{ID: id, Parent: l.round.Load(), Op: id, Name: name, Start: intended, End: done})
	l.store(span{ID: l.ids.Add(1), Parent: id, Op: id, Name: "driver.late", Start: intended, End: sent})
	l.store(span{ID: l.ids.Add(1), Parent: id, Op: id, Name: "cluster.service", Start: sent, End: done})
}

// nodeSpansKept bounds the node tracer's spans in the file to the most
// recent ones; the phase means are taken over all of them.
const nodeSpansKept = 1 << 16

// write stores the spans, with the node tracer's own phase spans beside
// them, as one JSON file.
func (l *spanLog) write(path, workload string, nodeSpans []obs.Span) error {
	n := min(l.n.Load(), uint64(len(l.buf)))
	nodeSpans = nodeSpans[max(len(nodeSpans)-nodeSpansKept, 0):]
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(struct {
		Workload  string     `json:"workload"`
		Dropped   uint64     `json:"dropped"`
		Spans     []span     `json:"spans"`
		NodeSpans []obs.Span `json:"node_spans"`
	}{workload, l.dropped.Load(), l.buf[:n], nodeSpans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
