package node

import (
	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/obs"
	"github.com/minos-ddp/minos/internal/transport"
)

// clientReq is one admitted client operation queued for a frontend
// worker. The value is owned by the request (copied at admission when
// the frame borrowed transport storage).
type clientReq struct {
	from   ddp.NodeID
	client uint64
	op     transport.ClientOp
	key    ddp.Key
	value  []byte
}

// frontend is the node's remote-client admission stage: a bounded queue
// plus a small worker pool that executes client operations through the
// same Write/ReadInto/Persist paths local callers use.
//
// The critical property is that admission is non-blocking. Client
// frames arrive on the node's delivery goroutine; a client operation
// executed inline there would deadlock the moment it needed its own
// acknowledgments delivered. So handleFrame only ever enqueues; when the queue is
// full the request is shed with an explicit StatusShed response — never
// silently dropped, never silently retried — which is exactly the
// back-pressure signal the open-loop load harness accounts for.
type frontend struct {
	n *Node
	q chan clientReq

	served *obs.Counter
	shed   *obs.Counter
	errs   *obs.Counter
	depth  *obs.Gauge
}

// newFrontend builds the frontend; workers start in Start.
func newFrontend(n *Node, window int) *frontend {
	return &frontend{
		n:      n,
		q:      make(chan clientReq, window),
		served: n.obs.Counter("client_served"),
		shed:   n.obs.Counter("client_shed"),
		errs:   n.obs.Counter("client_errs"),
		depth:  n.obs.Gauge("client_queue_depth_max"),
	}
}

// clientWorkers sizes each node's frontend worker pool.
const clientWorkers = 8

// start launches the worker pool on the node's WaitGroup.
func (fe *frontend) start() {
	for w := 0; w < clientWorkers; w++ {
		fe.n.wg.Add(1)
		go fe.worker()
	}
}

// admit handles an inbound FrameClientRequest: enqueue if the window
// has room, shed otherwise. It runs on the node's delivery goroutine
// (handleFrame) and must not block or execute the operation.
func (fe *frontend) admit(f transport.Frame) {
	req := clientReq{
		from:   f.From,
		client: f.Client,
		op:     f.Req.Op,
		key:    f.Req.Key,
		value:  f.Req.Value,
	}
	if fe.n.poller != nil && len(req.value) > 0 {
		// Inline polling borrows transport storage for the frame's
		// value; it dies when the handler returns, and the request
		// outlives it in the queue.
		req.value = append([]byte(nil), req.value...)
	}
	select {
	case fe.q <- req:
		fe.depth.Max(int64(len(fe.q)))
	default:
		fe.shed.Add(1)
		fe.respond(req.from, req.client, transport.ClientResponse{Op: req.op, Status: transport.StatusShed})
	}
}

// respond ships a client response; best-effort like every protocol
// send (a vanished client is its own problem).
func (fe *frontend) respond(to ddp.NodeID, client uint64, resp transport.ClientResponse) {
	_ = fe.n.tr.Send(to, transport.Frame{
		Kind:   transport.FrameClientResponse,
		Client: client,
		Resp:   resp,
	})
}

// worker drains admitted requests until the node closes. Operations
// blocked mid-protocol (ack waits, persist drains) unwind with
// ErrClosed via the node's Close wake machinery, so shutdown never
// hangs on an in-flight client op.
func (fe *frontend) worker() {
	defer fe.n.wg.Done()
	n := fe.n
	// Per-worker scope for <Lin, Scope>: remote clients cannot allocate
	// cluster-unique scope IDs themselves, so the worker owns one and
	// OpClientPersist flushes it — the same shape as a local scoped
	// client loop.
	var scope ddp.ScopeID
	if n.policy.Scoped {
		scope = n.NewScope()
	}
	var readBuf []byte
	for {
		select {
		case <-n.stop:
			return
		case req := <-fe.q:
			resp := transport.ClientResponse{Op: req.op, Status: transport.StatusOK}
			switch req.op {
			case transport.OpClientRead:
				v, err := n.ReadInto(req.key, readBuf)
				if err != nil {
					resp.Status = transport.StatusErr
				} else {
					// Send is done with the value bytes when it returns;
					// the worker's buffer can be aliased and recycled.
					readBuf = v[:0]
					resp.Value = v
				}
			case transport.OpClientWrite:
				if err := n.WriteScoped(req.key, req.value, scope); err != nil {
					resp.Status = transport.StatusErr
				}
			case transport.OpClientPersist:
				if err := n.Persist(scope); err != nil {
					resp.Status = transport.StatusErr
				} else if n.policy.Scoped {
					scope = n.NewScope()
				}
			default:
				resp.Status = transport.StatusErr
			}
			if resp.Status == transport.StatusErr {
				fe.errs.Add(1)
			} else {
				fe.served.Add(1)
			}
			fe.respond(req.from, req.client, resp)
		}
	}
}
