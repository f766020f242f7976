package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/node"
)

const (
	// checkKeys is how many written keys the replica check samples.
	checkKeys = 256
	// quiesce is how long the replica check waits for the writes still
	// propagating when the last round ended (Lin-REnf persists after it
	// answers).
	quiesce = 3 * time.Second
)

// checkAccounting holds the identity every round must satisfy: each
// operation the driver attempted ended in exactly one way.
func checkAccounting(r *roundResult) error {
	if got := r.ok + r.shed + r.errs + r.badRead + r.sendErr + r.abandoned; got != r.sent {
		return fmt.Errorf("accounting: attempted %d != ok %d + shed %d + err %d + short read %d + send error %d + abandoned %d",
			r.sent, r.ok, r.shed, r.errs, r.badRead, r.sendErr, r.abandoned)
	}
	return nil
}

// checkReplicas takes a seeded sample of the keys the driver wrote and
// requires, once the cluster has quiesced, that every replica holds the
// same timestamp and the same value for each, that the value is one this
// run wrote, and that each replica's log holds it durably.
func checkReplicas(nodes []*node.Node, written []uint64, seed int64) error {
	if len(written) == 0 {
		return fmt.Errorf("replicas: no written keys to check")
	}
	rng := rand.New(rand.NewSource(seed))
	keys := make([]ddp.Key, 0, checkKeys)
	for i := 0; i < checkKeys && i < len(written); i++ {
		keys = append(keys, ddp.Key(written[rng.Intn(len(written))]))
	}
	deadline := time.Now().Add(quiesce)
	for {
		err := replicasAgree(nodes, keys, seed)
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func replicasAgree(nodes []*node.Node, keys []ddp.Key, seed int64) error {
	var want []byte
	for _, key := range keys {
		var ts ddp.Timestamp
		for i, nd := range nodes {
			r := nd.Store().Get(key)
			if r == nil {
				return fmt.Errorf("replicas: key %d missing on node %d", key, nd.ID())
			}
			r.Lock()
			gotTS := r.Meta.VolatileTS
			if i == 0 {
				ts = gotTS
				want = append(want[:0], r.Value...)
			}
			same := gotTS == ts && bytes.Equal(r.Value, want)
			r.Unlock()
			if !same {
				return fmt.Errorf("replicas: key %d differs between node %d and node %d", key, nodes[0].ID(), nd.ID())
			}
			if !nd.Log().LocallyDurable(key, ts) {
				return fmt.Errorf("replicas: key %d at %v is not durable on node %d", key, ts, nd.ID())
			}
		}
		if len(want) != valueSize || binary.LittleEndian.Uint64(want) != uint64(seed) {
			return fmt.Errorf("replicas: key %d holds a value this run did not write", key)
		}
	}
	return nil
}
