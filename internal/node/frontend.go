package node

import (
	"encoding/json"
	"errors"
	"sync/atomic"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/kv"
	"github.com/minos-ddp/minos/internal/obs"
	"github.com/minos-ddp/minos/internal/transport"
)

// ErrShed is a session operation's StatusShed: the node's client window
// was full and the operation never ran.
var ErrShed = errors.New("node: shed (client window full)")

// errNotFound is a read of a key the node holds no value for.
var errNotFound = errors.New("node: key not found")

// frontend is the node's client admission stage: every client
// operation, a remote endpoint's request frame or a Session's call,
// runs through exec. It runs each operation at admission, on the
// admitting goroutine: a read answers from the seqlock, or parks on the
// record while an RDLock stalls it and is answered by the release, a
// write issues and is answered by whichever goroutine advances it to
// the model's Return point, a scope persist on its last [ACK_P]sc. At
// most window operations are in flight; one beyond that is shed with an
// explicit StatusShed (ErrShed) — never silently dropped or retried —
// the back-pressure signal the open-loop load harness accounts for.
type frontend struct {
	n        *Node
	window   int64
	inflight atomic.Int64

	// endpoints holds each remote endpoint's session, made on its first
	// scoped operation; readBuf backs remote read responses (Send is
	// done with it on return). Only the delivery goroutine uses them.
	endpoints map[ddp.NodeID]*Session
	readBuf   []byte

	served *obs.Counter
	shed   *obs.Counter
	errs   *obs.Counter
	depth  *obs.Gauge
}

func newFrontend(n *Node, window int) *frontend {
	return &frontend{
		n:         n,
		window:    int64(window),
		endpoints: make(map[ddp.NodeID]*Session),
		served:    n.obs.Counter("client_served"),
		shed:      n.obs.Counter("client_shed"),
		errs:      n.obs.Counter("client_errs"),
		depth:     n.obs.Gauge("client_queue_depth_max"), // peak in flight
	}
}

// client names who an operation answers: a remote endpoint (a response
// frame to to, echoing id) or a session caller (s, its slot sl).
type client struct {
	to ddp.NodeID
	id uint64
	op transport.ClientOp
	s  *Session
	sl *slot
}

// exec runs client operation c up to the point where it would wait, or
// sheds it if the window is full.
//
//minos:hotpath
func (fe *frontend) exec(c client, key ddp.Key, value []byte) {
	n := fe.n
	in := fe.inflight.Add(1)
	if in > fe.window {
		fe.shed.Add(1)
		fe.respond(c, transport.StatusShed, nil, ErrShed)
		return
	}
	fe.depth.Max(in)
	if n.closed.Load() {
		fe.complete(c, nil, ErrClosed)
		return
	}
	switch c.op {
	case transport.OpClientRead: // §III-D: always local, off the seqlock
		n.Stats.Reads.Add(1)
		buf := fe.readBuf
		if c.sl != nil {
			buf = c.sl.val
		}
		r := n.store.Get(key)
		if r == nil { // never written or preloaded anywhere
			fe.complete(c, nil, errNotFound)
			return
		}
		v, ok := r.ReadInto(buf)
		switch {
		case !ok: // RDLocked, or the copy kept losing to publications
			fe.readStalled(r, c)
		case v == nil:
			fe.complete(c, nil, errNotFound)
		default:
			if c.sl == nil {
				fe.readBuf = v[:0]
			}
			fe.complete(c, v, nil)
		}
	case transport.OpClientWrite:
		fe.write(c, key, value)
	case transport.OpClientPersist:
		// Flush the endpoint's open scope; its next write opens another.
		// No open scope (or no scopes at all): nothing to make durable.
		s := fe.session(c)
		s.mu.Lock()
		sc := s.sc
		s.sc = 0
		s.mu.Unlock()
		if sc == 0 {
			fe.complete(c, nil, nil)
			return
		}
		n.persistScope(sc, c)
	case transport.OpClientStats:
		src, _ := n.tr.(obs.Source)
		data, err := json.Marshal(obs.Collect(n, src))
		fe.complete(c, data, err)
	default:
		fe.errs.Add(1)
		fe.respond(c, transport.StatusErr, nil, nil)
	}
}

// write issues c's write. Under <Lin, Scope> it joins the endpoint's
// open scope, minted by its first write, and the session lock is held
// across the issue: a persist closing the scope then orders after the
// write is buffered in it, here and (its INV ahead of the [PERSIST]sc)
// at every follower.
//
//minos:lockorder node.Session.mu < kv.shard.mu
//minos:lockorder node.Session.mu < kv.Record
//minos:lockorder node.Session.mu < node.Node.scopeMu
//minos:lockorder node.Session.mu < nvm.drainQueue.mu
//minos:hotpath
func (fe *frontend) write(c client, key ddp.Key, value []byte) {
	if !fe.n.policy.Scoped {
		fe.n.write(key, value, 0, c)
		return
	}
	s := fe.session(c)
	s.mu.Lock()
	if s.sc == 0 {
		s.sc = fe.n.newScope()
	}
	fe.n.write(key, value, s.sc, c)
	s.mu.Unlock()
}

// session returns the session c runs in: its caller's, or the remote
// endpoint's, made on first use.
func (fe *frontend) session(c client) *Session {
	if c.s == nil {
		if c.s = fe.endpoints[c.to]; c.s == nil {
			c.s = fe.n.Session()
			fe.endpoints[c.to] = c.s
		}
	}
	return c.s
}

// readStalled answers read c from r once r's RDLock is free: now, or
// when the release fires its waiter. The value goes into a session
// caller's own buffer, else a fresh one, never readBuf: the release may
// run on a soft-NIC core. A closing node parks nothing (ErrClosed).
func (fe *frontend) readStalled(r *kv.Record, c client) {
	var v []byte
	var err error
	r.Lock()
	switch {
	case r.Meta.RDLocked():
		if fe.n.park(r, kv.Waiter{Until: kv.UntilUnlocked, To: c.to, Client: c.id, Reply: c.sl}) {
			r.Unlock()
			return
		}
		err = ErrClosed
	case !r.Published():
		err = errNotFound
	case c.sl != nil:
		v = append(c.sl.val[:0], r.Value...)
	default:
		v = append([]byte(nil), r.Value...)
	}
	r.Unlock()
	fe.complete(c, v, err)
}

// complete answers an admitted operation.
func (fe *frontend) complete(c client, v []byte, err error) {
	switch err {
	case nil:
		fe.served.Add(1)
		fe.respond(c, transport.StatusOK, v, nil)
	case errNotFound:
		fe.served.Add(1)
		fe.respond(c, transport.StatusNotFound, nil, nil)
	default:
		fe.errs.Add(1)
		fe.respond(c, transport.StatusErr, nil, err)
	}
}

// respond frees the operation's window slot and delivers its outcome:
// into a session caller's slot, or as a response frame, best-effort
// like every protocol send (a vanished client is its own problem).
func (fe *frontend) respond(c client, st transport.ClientStatus, v []byte, err error) {
	fe.inflight.Add(-1)
	if c.sl != nil {
		c.sl.fill(v, err)
		return
	}
	_ = fe.n.tr.Send(c.to, transport.Frame{
		Kind:   transport.FrameClientResponse,
		Client: c.id,
		Resp:   transport.ClientResponse{Op: c.op, Status: st, Value: v},
	})
}
