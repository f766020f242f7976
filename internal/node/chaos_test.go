package node

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/transport"
)

// TestChaosConvergence runs concurrent writers over a network that
// injects random per-message delays (FIFO per channel, like TCP) and
// verifies every model still converges with no leaked locks. This is
// the live-runtime analogue of the model checker's interleaving search.
func TestChaosConvergence(t *testing.T) {
	for _, model := range ddp.Models {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			t.Parallel()
			chaos := transport.NewChaosNetwork(3, 2*time.Millisecond, int64(model)+1)
			defer chaos.Close()
			nodes := make([]*Node, 3)
			for i := range nodes {
				nodes[i] = New(Config{Model: model}, chaos.Endpoint(ddp.NodeID(i)))
				nodes[i].Start()
			}
			defer func() {
				for _, nd := range nodes {
					nd.Close()
				}
			}()

			const keys = 3
			var wg sync.WaitGroup
			for _, nd := range nodes {
				nd := nd
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 10; i++ {
						key := ddp.Key(i % keys)
						val := []byte(fmt.Sprintf("chaos-n%d-%d", nd.ID(), i))
						err := nd.Write(key, val)
						if err == nil && model == ddp.LinScope {
							err = nd.Persist()
						}
						if err != nil {
							t.Errorf("write: %v", err)
							return
						}
					}
				}()
			}
			wg.Wait()

			// Wait for trailing VALs to land, then verify convergence.
			deadline := time.Now().Add(10 * time.Second)
			for k := ddp.Key(0); k < keys; k++ {
				for {
					var ref []byte
					var refTS ddp.Timestamp
					same := true
					for i, nd := range nodes {
						v, err := nd.Read(k)
						if err != nil {
							t.Fatal(err)
						}
						rec := nd.Store().Get(k)
						rec.Lock()
						ts := rec.Meta.VolatileTS
						rec.Unlock()
						if i == 0 {
							ref, refTS = v, ts
						} else if ts != refTS || !bytes.Equal(v, ref) {
							same = false
						}
					}
					if same {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("key %d never converged under chaos", k)
					}
					time.Sleep(2 * time.Millisecond)
				}
			}
		})
	}
}

// TestChaosLinearizable repeats the linearizability check over the
// delay-injecting network under <Lin, Synch>.
func TestChaosLinearizable(t *testing.T) {
	chaos := transport.NewChaosNetwork(3, time.Millisecond, 99)
	defer chaos.Close()
	nodes := make([]*Node, 3)
	for i := range nodes {
		nodes[i] = New(Config{Model: ddp.LinSynch}, chaos.Endpoint(ddp.NodeID(i)))
		nodes[i].Start()
	}
	defer func() {
		for _, nd := range nodes {
			nd.Close()
		}
	}()

	var mu sync.Mutex
	var hist []histOp
	var wg sync.WaitGroup
	for _, nd := range nodes {
		nd := nd
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2; i++ {
				v := fmt.Sprintf("c%d-%d", nd.ID(), i)
				start := time.Now()
				if err := nd.Write(7, []byte(v)); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				end := time.Now()
				mu.Lock()
				hist = append(hist, histOp{isWrite: true, value: v, start: start, end: end})
				mu.Unlock()
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				start := time.Now()
				v, err := nd.Read(7)
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				end := time.Now()
				mu.Lock()
				hist = append(hist, histOp{isWrite: false, value: string(v), start: start, end: end})
				mu.Unlock()
				time.Sleep(500 * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if !linearizable(hist) {
		t.Fatalf("no legal linearization of %d chaos ops", len(hist))
	}
}
