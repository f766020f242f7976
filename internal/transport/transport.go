package transport

import (
	"bytes"
	"errors"
	"sync"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/obs"
)

// Transport moves frames between nodes. Implementations guarantee
// per-peer FIFO delivery of frames that are delivered at all; they do
// not guarantee delivery across disconnections.
type Transport interface {
	// Send transmits f to peer. Sending to an unknown or disconnected
	// peer returns an error. Send is done with f's value bytes
	// (Msg.Value, Req.Value, Resp.Value) when it returns: the caller may
	// reuse or overwrite them at once. A fabric that keeps the frame
	// past Send keeps its own copy.
	Send(to ddp.NodeID, f Frame) error
	// Broadcast transmits f to every peer, encoding it at most once
	// (the paper's message-broadcast optimization, §VI). Delivery is
	// best-effort per peer: every peer is attempted and the first error
	// is returned. The value bytes are free on return, as for Send.
	Broadcast(f Frame) error
	// Recv returns the channel of inbound frames. The channel closes
	// when the transport closes.
	Recv() <-chan Frame
	// Self returns this endpoint's node ID.
	Self() ddp.NodeID
	// Peers returns the other node IDs in the cluster, in ascending
	// NodeID order. The slice is shared and immutable: do not modify it.
	Peers() []ddp.NodeID
	// Close shuts the transport down.
	Close() error
}

// ErrClosed is returned by Send after Close.
var ErrClosed = errors.New("transport: closed")

// ErrDisconnected is returned by Send when the peer is partitioned away
// (in-process transport failure injection).
var ErrDisconnected = errors.New("transport: peer disconnected")

// ErrBackpressure is returned by Send when a peer's send queue is full:
// the peer exists but is not draining what is queued for it.
var ErrBackpressure = errors.New("transport: peer send queue full")

// MemNetwork is an in-process cluster fabric: every endpoint sends
// frames straight into its peers' receive channels. It supports failure
// injection (Disconnect/Reconnect) for testing detection and recovery.
type MemNetwork struct {
	mu        sync.Mutex
	endpoints []*MemTransport
	down      map[ddp.NodeID]bool
}

// NewMemNetwork builds a fully connected in-process network of n nodes
// and returns one endpoint per node, indexed by NodeID.
func NewMemNetwork(n int) *MemNetwork { return NewMemNetworkClients(n, 0) }

// NewMemNetworkClients builds a network of nodes 0..nodes-1 plus
// clients client endpoints with IDs nodes..nodes+clients-1. Node
// endpoints peer with the other nodes (the protocol mesh); client
// endpoints peer with every node but with no other client — node
// broadcasts (INV fan-out, heartbeats) never reach them.
func NewMemNetworkClients(nodes, clients int) *MemNetwork {
	net := &MemNetwork{down: make(map[ddp.NodeID]bool)}
	nodeIDs := make([]ddp.NodeID, nodes)
	for i := range nodeIDs {
		nodeIDs[i] = ddp.NodeID(i)
	}
	for i := 0; i < nodes+clients; i++ {
		t := &MemTransport{
			net:   net,
			self:  ddp.NodeID(i),
			rx:    make(chan Frame, 4096),
			stats: newCounters(),
		}
		if i < nodes {
			t.peers = make([]ddp.NodeID, 0, nodes-1)
			for _, id := range nodeIDs {
				if id != t.self {
					t.peers = append(t.peers, id)
				}
			}
		} else {
			t.peers = nodeIDs
		}
		net.endpoints = append(net.endpoints, t)
	}
	return net
}

// Endpoint returns node id's transport.
func (n *MemNetwork) Endpoint(id ddp.NodeID) *MemTransport { return n.endpoints[int(id)] }

// Size returns the cluster size.
func (n *MemNetwork) Size() int { return len(n.endpoints) }

// Disconnect partitions id away: frames to and from it are dropped.
func (n *MemNetwork) Disconnect(id ddp.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.down[id] = true
}

// Reconnect heals id's partition.
func (n *MemNetwork) Reconnect(id ddp.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.down, id)
}

func (n *MemNetwork) isDown(id ddp.NodeID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.down[id]
}

// MemTransport is one node's endpoint on a MemNetwork.
type MemTransport struct {
	net   *MemNetwork
	self  ddp.NodeID
	peers []ddp.NodeID // immutable after construction

	mu     sync.Mutex
	rx     chan Frame
	closed bool

	stats counters
}

var _ Transport = (*MemTransport)(nil)
var _ obs.Source = (*MemTransport)(nil)

// Self returns this endpoint's node ID.
func (t *MemTransport) Self() ddp.NodeID { return t.self }

// Peers returns this endpoint's peer set (the other nodes for a node
// endpoint, every node for a client endpoint). The slice is immutable.
func (t *MemTransport) Peers() []ddp.NodeID { return t.peers }

// Recv returns the inbound frame channel.
func (t *MemTransport) Recv() <-chan Frame { return t.rx }

// Send delivers f to peer unless either side is partitioned or closed.
// The queued frame carries its own copy of the value bytes.
func (t *MemTransport) Send(to ddp.NodeID, f Frame) error {
	return t.deliver(to, ownValues(f))
}

// deliver queues f, whose value bytes the fabric owns, for peer to.
func (t *MemTransport) deliver(to ddp.NodeID, f Frame) error {
	if err := t.send(to, f); err != nil {
		t.stats.sendErrors.Add(1)
		return err
	}
	return nil
}

func (t *MemTransport) send(to ddp.NodeID, f Frame) error {
	if int(to) < 0 || int(to) >= t.net.Size() || to == t.self {
		return errors.New("transport: bad destination")
	}
	if t.net.isDown(t.self) || t.net.isDown(to) {
		return ErrDisconnected
	}
	f.From = t.self
	dst := t.net.endpoints[int(to)]
	dst.mu.Lock()
	defer dst.mu.Unlock()
	if dst.closed {
		return ErrClosed
	}
	select {
	case dst.rx <- f:
		t.stats.framesSent.Add(1)
		dst.stats.framesRecv.Add(1)
		return nil
	default:
		// A full receive queue on a live in-process peer means the
		// consumer stopped; treat as disconnection rather than blocking
		// the protocol forever.
		return ErrDisconnected
	}
}

// ownValues gives a frame that outlives Send its own copies of the
// caller's value bytes (the Send contract frees them on return).
func ownValues(f Frame) Frame {
	f.Msg.Value = bytes.Clone(f.Msg.Value)
	f.Req.Value = bytes.Clone(f.Req.Value)
	f.Resp.Value = bytes.Clone(f.Resp.Value)
	return f
}

// Broadcast delivers f to every peer. There is no wire encoding in
// process, so "encode once" becomes "copy the value bytes once": every
// peer receives the same read-only copy. The call counts as one
// broadcast for cross-transport stats comparability.
func (t *MemTransport) Broadcast(f Frame) error {
	t.stats.broadcasts.Add(1)
	f = ownValues(f)
	var firstErr error
	for _, id := range t.peers {
		if err := t.deliver(id, f); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Describe implements obs.Source.
func (t *MemTransport) Describe() string { return "transport" }

// Collect implements obs.Source, appending the endpoint's instruments
// to s.
func (t *MemTransport) Collect(s *obs.Snapshot) { t.stats.collect(s) }

// Close shuts the endpoint down and closes its receive channel.
func (t *MemTransport) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.closed {
		t.closed = true
		close(t.rx)
	}
	return nil
}
