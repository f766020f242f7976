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
	if n.closed.Load() {
		return ErrClosed
	}
	followers := n.liveFollowers()
	sp := &scopePersist{
		followers: followers,
		got:       make(map[ddp.NodeID]bool),
	}
	sp.cond = sync.NewCond(&sp.mu)
	n.scopeMu.Lock()
	n.scopeWait[sc] = sp
	n.scopeMu.Unlock()
	defer func() {
		n.scopeMu.Lock()
		delete(n.scopeWait, sc)
		n.scopeMu.Unlock()
	}()

	req := ddp.Message{Kind: ddp.KindPersist, Scope: sc, Size: ddp.ControlSize()}
	n.sendAll(followers, req)

	// Persist this node's buffered writes for the scope as one
	// pipelined group commit.
	entries := n.takeScope(sc)
	if !n.pipe.PersistMany(entries) {
		return ErrClosed
	}

	// Spin for all [ACK_P]sc from live followers.
	sp.mu.Lock()
	for {
		if n.closed.Load() {
			sp.mu.Unlock()
			return ErrClosed
		}
		done := true
		for _, f := range sp.followers {
			if !sp.got[f] && n.isAlive(f) {
				done = false
				break
			}
		}
		if done {
			break
		}
		sp.cond.Wait()
	}
	sp.mu.Unlock()

	// Every node persisted the scope: publish durability locally.
	for _, e := range entries {
		r := n.store.GetOrCreate(e.Key)
		r.Lock()
		r.Meta.AdvanceGlbDurable(e.TS)
		r.Wake()
		r.Unlock()
	}
	n.dropScope(sc)

	valP := ddp.Message{Kind: ddp.KindValP, Scope: sc, Size: ddp.ControlSize()}
	n.sendAll(followers, valP)
	return nil
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

// handleScopeAck records one [ACK_P]sc at the coordinator.
func (n *Node) handleScopeAck(m ddp.Message) {
	n.scopeMu.Lock()
	sp := n.scopeWait[m.Scope]
	n.scopeMu.Unlock()
	if sp == nil {
		return // late ack for a completed flush
	}
	sp.mu.Lock()
	sp.got[m.From] = true
	sp.cond.Broadcast()
	sp.mu.Unlock()
}

// handleScopeValP completes a scope at a follower: all nodes persisted
// it, so publish glb_durableTS for its writes and drop the buffer.
func (n *Node) handleScopeValP(m ddp.Message) {
	for _, e := range n.takeScope(m.Scope) {
		r := n.store.GetOrCreate(e.Key)
		r.Lock()
		r.Meta.AdvanceGlbDurable(e.TS)
		r.Wake()
		r.Unlock()
	}
	n.dropScope(m.Scope)
}
