// NIC-path shapes from the soft-NIC offload engine's splice into the
// node (internal/node offload.go): a NIC core runs the host's handlers,
// persist step included. Same package as node.go: the "node" path
// element keeps the persist-before-ack obligation active here.
package node

import "persistorder/nvm"

// persistThenAck is the follower's one persist-then-ack step on either
// side of the offload boundary: the pipeline append makes the function
// a continuation-deferrer, so call sites naming the ack kind hand it
// payload — the literal is not a bare ack construction.
func (n *Node) persistThenAck(m Message, k MsgKind) {
	n.pipe.Enqueue(nvm.Entry{}, nil)
	n.send(m.From, Message{Kind: k, From: 0})
}

// The INV handler names the combined ack kind as payload, wherever the
// handler runs.
func (n *Node) invAckOK(m Message) {
	n.persistThenAck(m, KindAck)
}

// An ack fan-out with no persist evidence keeps the obligation: a NIC
// core's handlers get no exemption.
func (n *Node) nicFanoutSkipsPersist(ms []Message) {
	for _, m := range ms {
		n.sendAck(m, KindAckP) // want `persist-before-ack`
	}
}
