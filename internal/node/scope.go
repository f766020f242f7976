package node

import (
	"sync"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/nvm"
)

// NewScope allocates a cluster-unique scope identifier for <Lin, Scope>
// writes.
func (n *Node) NewScope() ddp.ScopeID {
	return ddp.ScopeID(uint64(n.id)<<40 | n.scopeSeq.Add(1))
}

// bufferScope defers a persist until the scope's [PERSIST]sc.
func (n *Node) bufferScope(sc ddp.ScopeID, key ddp.Key, ts ddp.Timestamp, value []byte) {
	n.scopeMu.Lock()
	n.scopeBuf[sc] = append(n.scopeBuf[sc], nvm.Update{
		Key: key, TS: ts, Value: append([]byte(nil), value...), Scope: sc,
	})
	n.scopeMu.Unlock()
}

func (n *Node) takeScope(sc ddp.ScopeID) []nvm.Update {
	n.scopeMu.Lock()
	defer n.scopeMu.Unlock()
	return n.scopeBuf[sc]
}

func (n *Node) dropScope(sc ddp.ScopeID) {
	n.scopeMu.Lock()
	delete(n.scopeBuf, sc)
	n.scopeMu.Unlock()
}

// Persist runs the [PERSIST]sc transaction (Fig 3 vii): ask every
// follower to persist the scope's writes, persist the local ones, wait
// for all [ACK_P]sc, then send [VAL_P]sc. When Persist returns, every
// write in the scope is durable on every node. Under non-Scope models
// Persist is a no-op (their policies persist each write directly).
func (n *Node) Persist(sc ddp.ScopeID) error {
	if !n.policy.Scoped {
		return nil
	}
	return n.wait(&n.persistScope(sc, client{}).reply, true)
}

// persistScope starts the scope flush sc, whose outcome goes to c. It
// blocks for the local group commit only — as handlePersist does on a
// follower — and completes in checkScope on the last [ACK_P]sc.
func (n *Node) persistScope(sc ddp.ScopeID, c client) *scopePersist {
	followers := n.liveFollowers()
	sp := &scopePersist{
		reply:     reply{client: c, cond: sync.NewCond(&n.scopeMu)},
		followers: followers,
		got:       make(map[ddp.NodeID]bool, len(followers)),
	}
	n.scopeMu.Lock()
	sp.entries = n.scopeBuf[sc]
	n.scopeWait[sc] = sp
	n.scopeMu.Unlock()

	n.sendAll(followers, ddp.Message{Kind: ddp.KindPersist, Scope: sc, Size: ddp.ControlSize()})
	// Persist this node's buffered writes for the scope as one
	// pipelined group commit; it fails only on a closing node, which
	// checkScope answers with ErrClosed.
	n.pipe.PersistMany(sp.entries)
	n.scopeMu.Lock()
	sp.local = true
	n.scopeMu.Unlock()
	n.checkScope(sc)
	return sp
}

// checkScope completes the scope flush sc once its local flush drained
// and every live follower acknowledged it — or the node closed. Taking
// the flush out of scopeWait decides which caller completes it.
func (n *Node) checkScope(sc ddp.ScopeID) {
	n.scopeMu.Lock()
	sp := n.scopeWait[sc]
	closed := n.closed.Load()
	done := sp != nil && (closed || sp.local)
	for i := 0; done && !closed && i < len(sp.followers); i++ {
		f := sp.followers[i]
		done = sp.got[f] || !n.isAlive(f)
	}
	if done {
		delete(n.scopeWait, sc)
	}
	n.scopeMu.Unlock()
	if !done {
		return
	}
	if closed {
		n.finish(&sp.reply, ErrClosed)
		return
	}
	n.scopeDurable(sc, sp.entries)
	n.sendAll(sp.followers, ddp.Message{Kind: ddp.KindValP, Scope: sc, Size: ddp.ControlSize()})
	n.finish(&sp.reply, nil)
}

// handlePersist services [PERSIST]sc at a follower: persist every
// buffered write of the scope (one group commit), then acknowledge.
// Entries stay buffered until [VAL_P]sc publishes their glb_durableTS.
// A node that closes mid-flush sends no acknowledgment.
func (n *Node) handlePersist(m ddp.Message) {
	if !n.pipe.PersistMany(n.takeScope(m.Scope)) {
		return
	}
	n.send(m.From, ddp.Message{Kind: ddp.KindAckP, Scope: m.Scope, Size: ddp.ControlSize()})
}

// handleScopeAck records one [ACK_P]sc at the coordinator; a late ack
// for a completed flush finds nothing.
func (n *Node) handleScopeAck(m ddp.Message) {
	n.scopeMu.Lock()
	if sp := n.scopeWait[m.Scope]; sp != nil {
		sp.got[m.From] = true
	}
	n.scopeMu.Unlock()
	n.checkScope(m.Scope)
}

// handleScopeValP completes a scope at a follower.
func (n *Node) handleScopeValP(m ddp.Message) {
	n.scopeDurable(m.Scope, n.takeScope(m.Scope))
}

// scopeDurable completes a scope every node persisted: publish
// glb_durableTS for its writes, firing the waiters that satisfies, and
// drop the buffer.
func (n *Node) scopeDurable(sc ddp.ScopeID, entries []nvm.Update) {
	for _, e := range entries {
		r := n.store.GetOrCreate(e.Key)
		r.Lock()
		r.Meta.AdvanceGlbDurable(e.TS)
		r.Unlock()
		n.fire(r, false)
	}
	n.dropScope(sc)
}
