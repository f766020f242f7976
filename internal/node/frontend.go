package node

import (
	"encoding/json"
	"sync/atomic"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/kv"
	"github.com/minos-ddp/minos/internal/obs"
	"github.com/minos-ddp/minos/internal/transport"
)

// frontend is the node's remote-client admission stage. It runs each
// client operation at admission, on the delivery goroutine, through the
// paths local callers use: a read answers from the seqlock, or parks on
// the record while an RDLock stalls it and is answered by the release,
// a write issues and is answered by whichever goroutine advances it to
// the model's Return point, a scope persist on its last [ACK_P]sc. At most
// window operations are in flight; a request beyond that is shed with
// an explicit StatusShed response — never silently dropped or retried —
// the back-pressure signal the open-loop load harness accounts for.
type frontend struct {
	n        *Node
	window   int64
	inflight atomic.Int64

	// scopes is each client endpoint's open <Lin, Scope> scope, closed
	// by its next OpClientPersist, which flushes every write the
	// endpoint had admitted here before it. readBuf backs read responses (Send
	// is done with it on return). Only the delivery goroutine uses them.
	scopes  map[ddp.NodeID]ddp.ScopeID
	readBuf []byte

	served *obs.Counter
	shed   *obs.Counter
	errs   *obs.Counter
	depth  *obs.Gauge
}

func newFrontend(n *Node, window int) *frontend {
	return &frontend{
		n:      n,
		window: int64(window),
		scopes: make(map[ddp.NodeID]ddp.ScopeID),
		served: n.obs.Counter("client_served"),
		shed:   n.obs.Counter("client_shed"),
		errs:   n.obs.Counter("client_errs"),
		depth:  n.obs.Gauge("client_queue_depth_max"), // peak in flight
	}
}

// admit runs an inbound FrameClientRequest on the delivery goroutine up
// to the point where it would wait, or sheds it if the window is full.
func (fe *frontend) admit(f transport.Frame) {
	n := fe.n
	c := client{remote: true, to: f.From, id: f.Client, op: f.Req.Op}
	in := fe.inflight.Add(1)
	if in > fe.window {
		fe.shed.Add(1)
		fe.respond(c, transport.StatusShed, nil)
		return
	}
	fe.depth.Max(in)
	switch c.op {
	case transport.OpClientRead:
		r, v, err := n.readFast(f.Req.Key, fe.readBuf)
		if r != nil {
			fe.readStalled(r, c)
			return
		}
		if v != nil {
			fe.readBuf = v[:0]
		}
		fe.complete(c, v, err)
	case transport.OpClientWrite:
		if _, err := n.write(f.Req.Key, f.Req.Value, fe.scope(f.From), c); err != nil {
			fe.complete(c, nil, err)
		}
	case transport.OpClientPersist:
		// Flush the endpoint's open scope; its next write opens another.
		// No open scope (or no scopes at all): nothing to make durable.
		sc := fe.scopes[f.From]
		delete(fe.scopes, f.From)
		if sc == 0 {
			fe.complete(c, nil, nil)
			return
		}
		n.persistScope(sc, c)
	case transport.OpClientStats:
		fe.stats(c)
	default:
		fe.errs.Add(1)
		fe.respond(c, transport.StatusErr, nil)
	}
}

// scope returns endpoint from's open scope, minting one on its first
// write (0 outside <Lin, Scope>).
func (fe *frontend) scope(from ddp.NodeID) ddp.ScopeID {
	sc := fe.scopes[from]
	if sc == 0 && fe.n.policy.Scoped {
		sc = fe.n.NewScope()
		fe.scopes[from] = sc
	}
	return sc
}

// stats answers c with the JSON of the node's snapshot merged with its
// transport's wire instruments: the counters a benchmark reads, served
// to an operator over the same admission path.
func (fe *frontend) stats(c client) {
	src, _ := fe.n.tr.(obs.Source)
	data, err := json.Marshal(obs.Collect(fe.n, src))
	fe.complete(c, data, err)
}

// readStalled answers remote read c from r once r's RDLock is free:
// now, or when the release fires its waiter. The value goes out in a
// fresh buffer, never readBuf: the release may run on a soft-NIC core.
func (fe *frontend) readStalled(r *kv.Record, c client) {
	w := kv.Waiter{Until: kv.UntilUnlocked, To: c.to, Client: c.id}
	if v, parked, err := fe.n.readOrPark(r, w, nil); !parked {
		fe.complete(c, v, err)
	}
}

// complete answers an admitted operation.
func (fe *frontend) complete(c client, v []byte, err error) {
	if err != nil {
		fe.errs.Add(1)
		fe.respond(c, transport.StatusErr, nil)
		return
	}
	fe.served.Add(1)
	fe.respond(c, transport.StatusOK, v)
}

// respond frees the operation's window slot and ships its response;
// best-effort like every protocol send (a vanished client is its own
// problem).
func (fe *frontend) respond(c client, st transport.ClientStatus, v []byte) {
	fe.inflight.Add(-1)
	_ = fe.n.tr.Send(c.to, transport.Frame{
		Kind:   transport.FrameClientResponse,
		Client: c.id,
		Resp:   transport.ClientResponse{Op: c.op, Status: st, Value: v},
	})
}
