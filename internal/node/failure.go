package node

import (
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/kv"
	"github.com/minos-ddp/minos/internal/transport"
)

// This file implements the §III-E extensions: timeout-based failure
// detection and log-shipping recovery for re-inserted nodes.

// heartbeatLoop beacons liveness to every peer and declares peers that
// have been silent past the failure timeout.
func (n *Node) heartbeatLoop() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.cfg.HeartbeatEvery)
	defer ticker.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-ticker.C:
		}
		// Best effort; an unreachable peer shows up as silence. One
		// broadcast encodes the beacon once for the whole cluster.
		_ = n.tr.Broadcast(transport.Frame{Kind: transport.FrameHeartbeat})
		n.heartbeats.Add(1)
		n.checkTimeouts()
	}
}

// noteAlive marks a peer as seen: an atomic timestamp store on the hot
// path (every inbound frame lands here), with a new liveness epoch
// published only when a previously failed peer speaks again. The peer
// is responsible for running Recover itself to catch up its replica.
// With the detector off nothing ever reads lastSeen and no peer can be
// failed, so the whole call (and its clock read) is skipped.
func (n *Node) noteAlive(id ddp.NodeID) {
	if !n.detecting {
		return
	}
	i, ok := n.peerIdx[id]
	if !ok {
		return
	}
	n.lastSeen[i].Store(time.Now().UnixNano())
	if !n.live.Load().alive[id] {
		n.setAlive(id, true)
	}
}

// setAlive publishes a new liveness epoch with id's status changed.
// Pending completion predicates never shrink their follower sets, so
// revival needs no re-evaluation; failures get theirs in onPeerFailed.
func (n *Node) setAlive(id ddp.NodeID, up bool) {
	n.liveMu.Lock()
	defer n.liveMu.Unlock()
	cur := n.live.Load()
	if cur.alive[id] == up {
		return
	}
	alive := make(map[ddp.NodeID]bool, len(cur.alive))
	for k, v := range cur.alive {
		alive[k] = v
	}
	alive[id] = up
	live := make([]ddp.NodeID, 0, len(n.peers))
	for _, p := range n.peers {
		if alive[p] {
			live = append(live, p)
		}
	}
	n.live.Store(&liveView{epoch: cur.epoch + 1, alive: alive, live: live})
}

// checkTimeouts declares peers silent past FailAfter as failed.
func (n *Node) checkTimeouts() {
	now := time.Now().UnixNano()
	lv := n.live.Load()
	var failed []ddp.NodeID
	for i, p := range n.peers {
		if lv.alive[p] && now-n.lastSeen[i].Load() > int64(n.cfg.FailAfter) {
			failed = append(failed, p)
		}
	}
	for _, p := range failed {
		n.setAlive(p, false)
		n.onPeerFailed(p)
	}
}

// onPeerFailed advances everything that was waiting on the failed peer:
// pending write transactions stop expecting its acknowledgments, scope
// flushes stop expecting its [ACK_P]sc, and read locks owned by writes
// it coordinated are released — those writes can never validate — which
// fires the reads stalled on them.
func (n *Node) onPeerFailed(id ddp.NodeID) {
	n.Stats.PeersFailed.Add(1)
	n.sweep()

	// Abort the failed coordinator's in-flight writes locally: their
	// VALs will never arrive, so holding their RDLocks would stall
	// reads forever.
	n.store.Range(func(r *kv.Record) bool {
		r.Lock()
		if r.Meta.RDLockOwner.Node == id {
			r.ForceReleaseRDLock()
		}
		r.Unlock()
		n.fire(r, false)
		return true
	})
}

// Recover brings this node's replica up to date after a restart or
// partition: it asks target (a designated live node) for the log tail
// it is missing and applies it (§III-E). Safe to call repeatedly.
func (n *Node) Recover(target ddp.NodeID) error {
	if n.closed.Load() {
		return ErrClosed
	}
	return n.tr.Send(target, transport.Frame{
		Kind:  transport.FrameRecoveryRequest,
		Since: n.log.NextSeq(),
	})
}

// serveRecovery ships the requested log tail to a recovering peer.
func (n *Node) serveRecovery(to ddp.NodeID, since uint64) {
	entries := n.log.EntriesSince(since)
	out := make([]transport.LogEntry, len(entries))
	for i, e := range entries {
		out[i] = transport.LogEntry{
			Seq: e.Seq, Key: e.Key, TS: e.TS, Value: e.Value, Scope: e.Scope,
		}
	}
	_ = n.tr.Send(to, transport.Frame{
		Kind:    transport.FrameRecoveryEntries,
		Entries: out,
	})
}

// applyRecovery installs shipped log entries: each is persisted locally
// and applied to the volatile replica unless obsolete — the same
// obsoleteness filtering the log-apply path always performs. Recovery
// appends bypass the pipeline: the entries are already durable
// cluster-wide, so re-charging NVM latency would be double-counting.
func (n *Node) applyRecovery(entries []transport.LogEntry) {
	applied := 0
	for _, e := range entries {
		n.log.Append(e.Key, e.TS, e.Value, e.Scope)
		r := n.store.GetOrCreate(e.Key)
		r.Lock()
		if !r.Meta.Obsolete(e.TS) && r.Meta.VolatileTS.Less(e.TS) {
			r.Publish(e.Value, e.TS)
			r.Meta.AdvanceGlbVolatile(e.TS)
			r.Meta.AdvanceGlbDurable(e.TS)
			applied++
		}
		r.Unlock()
		n.fire(r, false)
	}
	if applied > 0 {
		n.Stats.Recoveries.Add(1)
	}
}

// Alive reports the peers currently considered live (plus self).
func (n *Node) Alive() map[ddp.NodeID]bool {
	lv := n.live.Load()
	out := map[ddp.NodeID]bool{n.id: true}
	for id, a := range lv.alive {
		out[id] = a
	}
	return out
}
