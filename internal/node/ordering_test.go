package node

import (
	"testing"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/obs"
	"github.com/minos-ddp/minos/internal/offload"
	"github.com/minos-ddp/minos/internal/transport"
)

// TestKeyAffineOrdering drives a follower directly over a raw transport
// endpoint: a burst of INVs for one key, timestamps strictly ascending
// in send order. The node must apply them in arrival order, so none may
// take the obsolete path (every INV persists and every acknowledgment
// carries the INV's own timestamp, in order).
// Under the old goroutine-per-message dispatch a later INV could apply
// first, turning earlier ones into spurious obsolete entries.
func TestKeyAffineOrdering(t *testing.T) {
	keyAffineBurst(t, Config{Model: ddp.LinSynch}, nil)
}

// TestKeyAffineOrderingAcrossPromotion is the same burst with the
// soft-NIC engine on and a promotion threshold in the middle of it: the
// first INVs run on the delivery goroutine, the key is promoted, and
// the rest run on a NIC core. Promotion is unfenced — it relies on the
// delivery goroutine having run every earlier message to completion —
// so the acknowledgments must still come back in exact version order
// through the group-commit pipeline both sides share, with and without
// a modeled device delay (persistDelays).
//
// The "cools" rows tick two epochs once the first half of the burst is
// routed, before it has necessarily drained: the key's next INV finds
// it cooled (no traffic last epoch), so it goes back to the host behind
// the drain fence. The second half is paced (each INV sent once the one
// before is handled) so the drain ends, and the key re-heats and is
// promoted again within it.
func TestKeyAffineOrderingAcrossPromotion(t *testing.T) {
	for _, pd := range persistDelays {
		t.Run(pd.name, func(t *testing.T) {
			n := keyAffineBurst(t, Config{Model: ddp.LinSynch, PersistDelay: pd.delay, Offload: &offload.Config{
				InitialThreshold: 64, MinThreshold: 64,
				MaxPromotionsPerEpoch: 1 << 20,
				Epoch:                 -1,
			}}, nil)
			eng := n.Offload()
			if eng.Promotions() != 1 || eng.HostFrames() == 0 || eng.NICFrames() == 0 {
				t.Fatalf("burst did not cross a promotion: %d promotions, %d host frames, %d NIC frames",
					eng.Promotions(), eng.HostFrames(), eng.NICFrames())
			}
		})
		t.Run(pd.name+"/cools", func(t *testing.T) {
			n := keyAffineBurst(t, Config{Model: ddp.LinSynch, PersistDelay: pd.delay, Offload: &offload.Config{
				InitialThreshold: 64, MinThreshold: 64, MaxThreshold: 64,
				MaxPromotionsPerEpoch: 1 << 20,
				Epoch:                 -1,
			}}, func(n *Node, v int) {
				eng := n.Offload()
				const half = 100
				switch {
				case v == half+1:
					waitUntil(t, "first half routed", func() bool { return eng.NICFrames()+eng.HostFrames() == half })
					eng.Tick()
					eng.Tick()
				case v > half+1:
					waitUntil(t, "previous INV handled", func() bool { return n.Stats.InvsHandled.Load() == int64(v-1) })
				}
			})
			eng := n.Offload()
			var s obs.Snapshot
			eng.Collect(&s)
			if eng.Promotions() != 2 || s.Counter("offload.cooled") != 1 || eng.Demotions() != 0 {
				t.Fatalf("burst did not cool and re-heat: %d promotions, %d cooled, %d overflow demotions",
					eng.Promotions(), s.Counter("offload.cooled"), eng.Demotions())
			}
		})
	}
}

// persistDelays are the two device charges the offload ordering tests
// cross. Both queue into the pipeline and ack from its drain engine:
// at zero delay ("inline") nothing but the drain hop separates enqueue
// from append; 20 µs lets entries coalesce into group commits.
var persistDelays = []struct {
	name  string
	delay time.Duration
}{
	{"inline", 0},
	{"queued", 20 * time.Microsecond},
}

// waitUntil polls cond until it holds, failing the test after 10 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// keyAffineBurst runs the TestKeyAffineOrdering burst against one
// follower built from cfg and returns it (closed at test end). A
// non-nil before runs ahead of sending INV version v.
func keyAffineBurst(t *testing.T, cfg Config, before func(n *Node, v int)) *Node {
	t.Helper()
	net := transport.NewMemNetwork(2)
	client := net.Endpoint(0) // raw: we play the coordinator by hand
	n := New(cfg, net.Endpoint(1))
	n.Start()
	t.Cleanup(func() { n.Close() })

	const key = ddp.Key(7)
	const writes = 200
	for v := 1; v <= writes; v++ {
		if before != nil {
			before(n, v)
		}
		m := ddp.Message{
			Kind: ddp.KindInv, Key: key,
			TS:    ddp.Timestamp{Node: 0, Version: ddp.Version(v)},
			Value: []byte{byte(v)},
			Size:  ddp.DataSize(1),
		}
		if err := client.Send(1, transport.Frame{Kind: transport.FrameMessage, Msg: m}); err != nil {
			t.Fatalf("send INV v%d: %v", v, err)
		}
	}

	// Collect the combined Synch ACKs; they must come back in timestamp
	// order because the node processed the INVs in FIFO order.
	got := 0
	deadline := time.After(10 * time.Second)
	for got < writes {
		select {
		case f, ok := <-client.Recv():
			if !ok {
				t.Fatal("client endpoint closed early")
			}
			if f.Kind != transport.FrameMessage || f.Msg.Kind != ddp.KindAck {
				continue
			}
			got++
			if want := ddp.Version(got); f.Msg.TS.Version != want {
				t.Fatalf("ack %d carries version %d, want %d: INVs were reordered",
					got, f.Msg.TS.Version, want)
			}
		case <-deadline:
			t.Fatalf("timed out with %d/%d acks", got, writes)
		}
	}

	// In-order application means no INV was obsolete: all of them
	// persisted, and the record sits at the final timestamp.
	if l := n.Log().Len(); l != writes {
		t.Fatalf("log has %d entries, want %d (obsolete INVs skipped persisting)", l, writes)
	}
	r := n.Store().Get(key)
	if r == nil {
		t.Fatal("record missing")
	}
	r.Lock()
	ts := r.Meta.VolatileTS
	r.Unlock()
	if ts.Version != writes {
		t.Fatalf("volatile TS version %d, want %d", ts.Version, writes)
	}
	if invs := n.Stats.InvsHandled.Load(); invs != writes {
		t.Fatalf("handled %d INVs, want %d", invs, writes)
	}
	return n
}

// TestNodeGroupCommit exercises the node-level half of the group-commit
// contract: with a real persist delay, concurrent Synch writes must
// coalesce (fewer drained batches than entries) while every write still
// returns only after it is locally durable on all nodes.
func TestNodeGroupCommit(t *testing.T) {
	net := transport.NewMemNetwork(3)
	nodes := make([]*Node, 3)
	for i := range nodes {
		nodes[i] = New(Config{
			Model:        ddp.LinSynch,
			PersistDelay: 2 * time.Millisecond,
		}, net.Endpoint(ddp.NodeID(i)))
		nodes[i].Start()
	}
	defer func() {
		for _, nd := range nodes {
			nd.Close()
		}
	}()

	const writers, perWriter = 8, 5
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		w := w
		go func() {
			for i := 0; i < perWriter; i++ {
				key := ddp.Key(w*perWriter + i)
				if err := nodes[0].Write(key, []byte{byte(w), byte(i)}); err != nil {
					errs <- err
					return
				}
				if !nodes[0].Log().LocallyDurable(key, ddp.Timestamp{Node: 0, Version: 1}) {
					errs <- errNotDurable
					return
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < writers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	total := int64(writers * perWriter)
	for i, nd := range nodes {
		p := nd.Pipeline()
		if p.Entries() != total {
			t.Fatalf("node %d drained %d entries, want %d", i, p.Entries(), total)
		}
		if p.Batches() >= total {
			t.Fatalf("node %d used %d batches for %d entries: no group commit happened",
				i, p.Batches(), total)
		}
	}
}

var errNotDurable = errNotDurableT{}

type errNotDurableT struct{}

func (errNotDurableT) Error() string { return "write returned before locally durable" }
