package node

import (
	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/nvm"
)

// newScope allocates a cluster-unique scope identifier: an endpoint's
// next <Lin, Scope> scope (frontend.write).
func (n *Node) newScope() ddp.ScopeID {
	return ddp.ScopeID(uint64(n.id)<<40 | n.scopeSeq.Add(1))
}

// bufferScope defers a persist until the scope's [PERSIST]sc.
func (n *Node) bufferScope(sc ddp.ScopeID, key ddp.Key, ts ddp.Timestamp, value []byte) {
	n.scopeMu.Lock()
	n.scopeBuf[sc] = append(n.scopeBuf[sc], nvm.Update{
		Key: key, TS: ts, Value: append([]byte(nil), value...),
	})
	n.scopeMu.Unlock()
}

// takeScope returns the writes buffered in scope sc.
func (n *Node) takeScope(sc ddp.ScopeID) []nvm.Update {
	n.scopeMu.Lock()
	defer n.scopeMu.Unlock()
	return n.scopeBuf[sc]
}

// persistScope starts the scope flush sc, whose outcome goes to c. The
// coordinator flushes its own buffered writes as a follower does and
// acknowledges itself; the flush completes in checkScope on the last
// [ACK_P]sc. The scope is closed, so no write joins it from here on.
func (n *Node) persistScope(sc ddp.ScopeID, c client) {
	followers := n.liveFollowers()
	sp := &scopePersist{
		client:    c,
		followers: followers,
		got:       make(map[ddp.NodeID]bool, len(followers)+1),
	}
	n.scopeMu.Lock()
	n.scopeWait[sc] = sp
	n.scopeMu.Unlock()

	n.sendAll(followers, ddp.Message{Kind: ddp.KindPersist, Scope: sc, Size: ddp.ControlSize()})
	if !n.flushScope(sc, n.id) {
		n.checkScope(sc) // a closing node: ErrClosed
	}
}

// flushScope persists every write buffered in scope sc as one group
// commit whose [ACK_P]sc to to rides the pipeline's ack hook
// (sendDurableAck) — at once for an empty scope. Entries stay buffered
// until [VAL_P]sc publishes their glb_durableTS. It returns false on a
// closing node, which sends no acknowledgment.
func (n *Node) flushScope(sc ddp.ScopeID, to ddp.NodeID) bool {
	return n.pipe.EnqueueSetAck(sc, n.takeScope(sc), to, ddp.KindAckP)
}

// checkScope completes the scope flush sc once the coordinator's own
// flush and every live follower acknowledged it — or the node closed.
// Taking the flush out of scopeWait decides which caller completes it.
func (n *Node) checkScope(sc ddp.ScopeID) {
	n.scopeMu.Lock()
	sp := n.scopeWait[sc]
	closed := n.closed.Load()
	done := sp != nil && (closed || sp.got[n.id])
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
		n.fe.complete(sp.client, nil, ErrClosed)
		return
	}
	n.scopeDurable(sc)
	n.sendAll(sp.followers, ddp.Message{Kind: ddp.KindValP, Scope: sc, Size: ddp.ControlSize()})
	n.fe.complete(sp.client, nil, nil)
}

// handlePersist services [PERSIST]sc at a follower: the scope's
// buffered writes are acknowledged once their group commit drains.
func (n *Node) handlePersist(m ddp.Message) {
	n.flushScope(m.Scope, m.From)
}

// handleScopeAck records one [ACK_P]sc at the coordinator, its own
// included; a late ack for a completed flush finds nothing.
func (n *Node) handleScopeAck(m ddp.Message) {
	n.scopeMu.Lock()
	if sp := n.scopeWait[m.Scope]; sp != nil {
		sp.got[m.From] = true
	}
	n.scopeMu.Unlock()
	n.checkScope(m.Scope)
}

// scopeDurable completes a scope every node persisted — at its
// coordinator, or at a follower on its [VAL_P]sc: drop the buffer and
// publish glb_durableTS for its writes, firing the waiters that
// satisfies.
func (n *Node) scopeDurable(sc ddp.ScopeID) {
	n.scopeMu.Lock()
	entries := n.scopeBuf[sc]
	delete(n.scopeBuf, sc)
	n.scopeMu.Unlock()
	for _, e := range entries {
		r := n.store.GetOrCreate(e.Key)
		r.Lock()
		r.Meta.AdvanceGlbDurable(e.TS)
		r.Unlock()
		n.fire(r, false)
	}
}
