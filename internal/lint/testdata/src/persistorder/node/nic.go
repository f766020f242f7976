// NIC-path shapes from the soft-NIC offload engine's ack plumbing
// (internal/node offload splice). Same package as node.go: the "node"
// path element keeps the persist-before-ack obligation active here.
package node

import "persistorder/nvm"

// persistThenAck is the follower's one persist-then-ack step: the
// pipeline append makes the function a continuation-deferrer, so call
// sites naming the ack kind hand it payload — the literal is not a bare
// ack construction. On a NIC core (nic) the update stages into the
// dFIFO instead, whose drain below acknowledges after its group commit.
func (n *Node) persistThenAck(m Message, k MsgKind, nic bool) {
	if nic && n.stage(m, k) {
		return
	}
	n.pipe.Enqueue(nvm.Entry{}, nil)
	n.send(m.From, Message{Kind: k, From: 0})
}

func (n *Node) stage(m Message, k MsgKind) bool { return false }

// The INV handler names the combined ack kind as payload on either
// side of the offload boundary.
func (n *Node) invAckOK(m Message, nic bool) {
	n.persistThenAck(m, KindAck, nic)
}

// The dFIFO drain: one blocking group commit covers the whole staged
// batch — bailing on its false (closing) return — and only then does
// the batch's acknowledgment fan-out run.
func (n *Node) nicDrainBatchOK(ms []Message) {
	if !n.pipe.PersistMany(n.buffered) {
		return
	}
	for _, m := range ms {
		n.sendAck(m, KindAckP)
	}
}

// Skipping the group commit leaves the fan-out un-evidenced: the
// obligation survives the batching.
func (n *Node) nicDrainSkipsPersist(ms []Message) {
	for _, m := range ms {
		n.sendAck(m, KindAckP) // want `persist-before-ack`
	}
}
