// Fixture for the persistorder analyzer: the path element "node" marks
// this as live-protocol handler code. Durability evidence is typed and
// interprocedural — it comes from the seed methods in the sibling nvm
// and ddp fixture packages, directly, through local helpers, and
// through the flush helper package's exported facts.
package node

import (
	"persistorder/ddp"
	"persistorder/flush"
	"persistorder/nvm"
)

type MsgKind int

const (
	KindInv MsgKind = iota
	KindAck
	KindAckC
	KindAckP
)

type Message struct {
	Kind MsgKind
	From int
}

type Node struct {
	pipe     *nvm.Pipeline
	log      *nvm.Log
	meta     *ddp.Meta
	buffered []nvm.Entry
}

func (n *Node) send(to int, m Message)       {}
func (n *Node) sendAck(m Message, k MsgKind) {}

func (n *Node) ackWithoutPersist(m Message) {
	n.sendAck(m, KindAck) // want `persist-before-ack`
}

func (n *Node) ackAfterPersist(m Message, e nvm.Entry) {
	n.pipe.Persist(e)
	n.sendAck(m, KindAck)
}

func (n *Node) consistencyAckOK(m Message, e nvm.Entry) {
	n.sendAck(m, KindAckC)
	n.pipe.Persist(e)
	n.sendAck(m, KindAckP)
}

func (n *Node) branchMissesPersist(m Message, e nvm.Entry, fast bool) {
	if !fast {
		n.pipe.Persist(e)
	}
	n.sendAck(m, KindAckP) // want `persist-before-ack`
}

func (n *Node) loopPersistOK(m Message) {
	for _, e := range n.buffered {
		n.pipe.Persist(e)
	}
	n.send(m.From, Message{Kind: KindAckP, From: 0})
}

// A local helper that reaches a seed is itself an evidence provider
// (intra-package interprocedural derivation).
func (n *Node) waitPersistency(txn uint64) {
	for !n.meta.PersistencyDone(txn) {
	}
}

func (n *Node) waitThenAckOK(m Message) {
	n.waitPersistency(7)
	n.sendAck(m, KindAckP)
}

// Spinning on the local durability predicate is evidence carried by the
// loop condition.
func (n *Node) spinThenAckOK(m Message, seq uint64) {
	for !n.log.LocallyDurable(seq) {
	}
	n.sendAck(m, KindAck)
}

func (n *Node) composedAckLiteral(m Message) {
	n.send(m.From, Message{Kind: KindAck}) // want `persist-before-ack`
}

// Evidence imported as an object fact from the flush helper package.
func (n *Node) crossPackageFlushOK(m Message) {
	flush.Drain(n.pipe, n.buffered)
	n.sendAck(m, KindAckP)
}

// A continuation passed to the pipeline runs strictly after the log
// append — an ack built inside it is born with durability evidence.
func (n *Node) continuationAckOK(m Message, e nvm.Entry) {
	n.pipe.Enqueue(e, func() {
		n.send(m.From, Message{Kind: KindAckP, From: 0})
	})
}

// The same holds one forwarding hop away, through the helper package's
// continuation-parameter fact.
func (n *Node) forwardedContinuationOK(m Message, e nvm.Entry) {
	flush.After(n.pipe, e, func() {
		n.sendAck(m, KindAckP)
	})
}

// A named function passed as a continuation is born durable: its acks
// need no local evidence.
func (n *Node) flushDone() {
	n.sendAck(Message{}, KindAckP)
}

func (n *Node) namedContinuationOK(e nvm.Entry) {
	n.pipe.Enqueue(e, n.flushDone)
}

// The same closure NOT handed to the pipeline keeps the obligation.
func (n *Node) bareClosureAck(m Message) {
	f := func() {
		n.sendAck(m, KindAckP) // want `persist-before-ack`
	}
	f()
}

// persistThen pipelines the update and sends the kind from the drain
// engine strictly after the append: naming the ack kind at its call
// sites is payload handed to the continuation, not an ack construction.
func (n *Node) persistThen(m Message, k MsgKind) {
	n.pipe.Enqueue(nvm.Entry{}, func() {
		n.send(m.From, Message{Kind: k, From: 0})
	})
}

func (n *Node) pipelinedAckOK(m Message) {
	n.persistThen(m, KindAck)
}

// A blocking scope flush counts as evidence; bailing out on its false
// (node-closed) return keeps the ack on the durable path only.
func (n *Node) scopeFlushAckOK(m Message) {
	if !n.pipe.PersistMany(n.buffered) {
		return
	}
	n.sendAck(m, KindAckP)
}

// The pipeline's ack-carrying enqueue takes the kind as payload: its
// ack hook sends it after the group commit appends the entry.
func (n *Node) pipelineAckKindOK(m Message, e nvm.Entry) {
	n.pipe.EnqueueAck(e, m.From, ddp.KindAckP)
}

// Only the kind argument travels behind the append: an ack sent while
// working out another argument is built before any persist, and both
// that send and the enqueue naming it are reported.
func (n *Node) ackBesidePipelineKind(m Message, e nvm.Entry) {
	n.pipe.EnqueueAck(e, n.ackedPeer(m, KindAck), ddp.KindAckP) // want `persist-before-ack` `persist-before-ack`
}

func (n *Node) ackedPeer(m Message, k MsgKind) int {
	n.sendAck(m, k)
	return m.From
}
