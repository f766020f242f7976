package node

import (
	"runtime"
	"sync"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/transport"
)

// Session is an in-process client endpoint: the frontend admits its
// operations as it admits a remote endpoint's — the same window (ErrShed
// where a frame gets StatusShed), the same node.client_* instruments,
// and one <Lin, Scope> scope, which the session's first write opens and
// its Persist flushes. Its operations may run concurrently, each
// completing into a pooled slot its caller waits on; a session holds no
// goroutine and no node-side registration.
type Session struct {
	n  *Node
	mu sync.Mutex
	sc ddp.ScopeID // the open scope, 0 if none; guarded by mu
}

// Session returns a new in-process client endpoint at n.
func (n *Node) Session() *Session { return &Session{n: n} }

// Write is Session.Write on the node's default session.
//
//minos:hotpath
func (n *Node) Write(key ddp.Key, value []byte) error { return n.sess.Write(key, value) }

// Read is Session.Read on the node's default session.
func (n *Node) Read(key ddp.Key) ([]byte, error) { return n.sess.ReadInto(key, nil) }

// ReadInto is Session.ReadInto on the node's default session.
//
//minos:hotpath
func (n *Node) ReadInto(key ddp.Key, buf []byte) ([]byte, error) { return n.sess.ReadInto(key, buf) }

// Persist is Session.Persist on the node's default session.
func (n *Node) Persist() error { return n.sess.Persist() }

// Write performs a client-write: replicate value under key to every
// node per the configured DDP model (Fig 2 Coordinator). It returns once
// the model's visibility/durability conditions for a response hold.
//
//minos:hotpath
func (s *Session) Write(key ddp.Key, value []byte) error {
	_, err := s.do(transport.OpClientWrite, key, value, nil)
	return err
}

// Read performs a client-read (§III-D): always local, stalled only
// while the record's RDLock is held by an in-flight write. It returns a
// copy of the value (nil if the key has never been written).
func (s *Session) Read(key ddp.Key) ([]byte, error) { return s.ReadInto(key, nil) }

// ReadInto is Read into buf, reusing its capacity, so a caller that
// recycles its buffer reads without allocating. A read the seqlock
// answers at once never waits, so it completes on the caller without
// taking a window slot; a stalled read, a missing key or a closed node
// is admitted like every operation.
//
//minos:hotpath
func (s *Session) ReadInto(key ddp.Key, buf []byte) ([]byte, error) {
	n := s.n
	if r := n.store.Get(key); r != nil && !n.closed.Load() {
		if v, ok := r.ReadInto(buf); ok && v != nil {
			n.Stats.Reads.Add(1)
			n.fe.served.Add(1)
			return v, nil
		}
	}
	v, err := s.do(transport.OpClientRead, key, nil, buf)
	if err == errNotFound {
		return nil, nil
	}
	return v, err
}

// Persist runs the [PERSIST]sc transaction (Fig 3 vii) on the session's
// open scope: every write the session issued before it is durable on
// every node when it returns. A no-op under non-Scope models, which
// persist each write directly.
func (s *Session) Persist() error {
	_, err := s.do(transport.OpClientPersist, 0, nil, nil)
	return err
}

// do runs one operation through the frontend and waits for it.
//
//minos:hotpath
func (s *Session) do(op transport.ClientOp, key ddp.Key, value, buf []byte) ([]byte, error) {
	sl := slotPool.Get().(*slot)
	sl.val, sl.err = buf, nil
	s.n.fe.exec(client{op: op, s: s, sl: sl}, key, value)
	s.n.wait(sl, op != transport.OpClientRead)
	v, err := sl.val, sl.err
	sl.val = nil
	slotPool.Put(sl)
	return v, err
}

// slot is a session operation's completion: val carries the caller's
// read buffer in and the value out, and done receives once the
// outcome is in.
type slot struct {
	done chan struct{} // capacity 1
	val  []byte
	err  error
}

var slotPool = sync.Pool{New: func() any { return &slot{done: make(chan struct{}, 1)} }}

// fill delivers the operation's outcome, exactly once.
//
//minos:hotpath
func (sl *slot) fill(v []byte, err error) {
	sl.val, sl.err = v, err
	sl.done <- struct{}{}
}

// Inline-polling wait tuning: a waiting session caller spins this many
// rounds, each draining inbound frames itself (PollInline) or yielding,
// before parking. Over the ring at zero persist delay a whole write
// completes within a few rounds.
const (
	ackSpinRounds = 256
	ackPollBudget = 32
)

// wait parks a session caller until its operation's slot is filled. A
// write or a scope flush (poll) first commits the persists the caller
// deferred, as the delivery goroutine does at the end of a burst, and
// over an inline-polling transport drives the receive path itself, so
// the acknowledgments that complete it run on its goroutine. A stalled
// read does not poll: the release it waits for is another write's, and
// spinning only takes the CPU that write needs (on 2 vCPUs it tripled
// the write p90 of an in-process writer beside a stalled reader).
//
//minos:hotpath
func (n *Node) wait(sl *slot, poll bool) {
	if poll && len(sl.done) == 0 {
		if n.commitInline {
			n.pipe.Flush()
		}
		for spin := 0; n.poller != nil && spin < ackSpinRounds && len(sl.done) == 0; spin++ {
			// A spinning caller must not sit on staged VAL releases:
			// its peers' hot-key writes wait on them.
			n.flushVals()
			if n.poller.PollInline(ackPollBudget) == 0 {
				runtime.Gosched()
			}
		}
	}
	// Parked callers cannot piggyback flushes; drain the stage first so
	// peers are not left waiting on our releases.
	n.flushVals()
	<-sl.done
}
