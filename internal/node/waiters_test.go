package node

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/obs"
	"github.com/minos-ddp/minos/internal/transport"
)

// sampleGoroutines samples runtime.NumGoroutine until the returned
// stop is called, which reports the highest count seen.
func sampleGoroutines() (stop func() int) {
	quit, peak := make(chan struct{}), make(chan int)
	go func() {
		max := 0
		for {
			if n := runtime.NumGoroutine(); n > max {
				max = n
			}
			select {
			case <-quit:
				peak <- max
				return
			case <-time.After(50 * time.Microsecond):
			}
		}
	}()
	return func() int {
		close(quit)
		return <-peak
	}
}

// firedWaiters sums waiters_fired and the record_waiters peak over the
// cluster.
func firedWaiters(nodes []*Node) (fired, peak int64) {
	for _, nd := range nodes {
		s := obs.Collect(nd)
		fired += s.Counter("node.waiters_fired")
		peak += s.GaugeValue("node.record_waiters")
	}
	return fired, peak
}

// TestHotKeyStartsNoGoroutines: the contention cases — an INV already
// superseded at its follower, a read stalled on an RDLock — park a
// waiter on the record instead of starting a goroutine, so a hot-key
// burst leaves the goroutine count flat.
func TestHotKeyStartsNoGoroutines(t *testing.T) {
	for _, model := range []ddp.Model{ddp.LinSynch, ddp.LinStrict} {
		t.Run(model.String()+"/remote", func(t *testing.T) {
			nodes, client := newClientCluster(t, 3, model, func(c *Config) {
				c.PersistDelay = 200 * time.Microsecond
				c.ClientWindow = 4096
			})
			base := settledGoroutines()
			stop := sampleGoroutines()
			const perNode = 300
			sent := 0
			for i := 0; i < perNode; i++ {
				for to := range nodes {
					for _, req := range []transport.ClientRequest{
						{Op: transport.OpClientWrite, Key: 1, Value: []byte(fmt.Sprintf("n%d-%d", to, i))},
						{Op: transport.OpClientRead, Key: 1},
					} {
						f := transport.Frame{Kind: transport.FrameClientRequest, Client: uint64(sent), Req: req}
						if err := client.Send(ddp.NodeID(to), f); err != nil {
							t.Fatal(err)
						}
						sent++
					}
				}
			}
			deadline := time.After(10 * time.Second)
			for got := 0; got < sent; got++ {
				select {
				case f := <-client.Recv():
					if f.Resp.Status != transport.StatusOK {
						t.Fatalf("client %d answered %v", f.Client, f.Resp.Status)
					}
				case <-deadline:
					t.Fatalf("%d of %d operations answered", got, sent)
				}
			}
			peak := stop()
			fired, parked := firedWaiters(nodes)
			t.Logf("goroutines: base %d, peak %d; waiters fired %d, peak parked %d", base, peak, fired, parked)
			if grew := peak - base; grew >= 10 {
				t.Fatalf("%d contended operations on one key raised the goroutine count by %d", sent, grew)
			}
		})
		t.Run(model.String()+"/in-process", func(t *testing.T) {
			nodes, _ := newCluster(t, 3, model, func(c *Config) {
				c.PersistDelay = 200 * time.Microsecond
			})
			base := settledGoroutines()
			stop := sampleGoroutines()
			const writers, writes = 16, 30
			var wg, rg sync.WaitGroup
			quit := make(chan struct{})
			for _, nd := range nodes {
				nd := nd
				for w := 0; w < writers; w++ {
					w := w
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < writes; i++ {
							if err := nd.Write(1, []byte(fmt.Sprintf("n%d-%d-%d", nd.ID(), w, i))); err != nil {
								t.Errorf("write: %v", err)
								return
							}
						}
					}()
				}
				rg.Add(1)
				go func() {
					defer rg.Done()
					var buf []byte
					for {
						select {
						case <-quit:
							return
						default:
						}
						v, err := nd.ReadInto(1, buf)
						if err != nil {
							t.Errorf("read: %v", err)
							return
						}
						buf = v
					}
				}()
			}
			own := len(nodes)*(writers+1) + 1 // writers, readers, sampler
			wg.Wait()
			close(quit)
			rg.Wait()
			peak := stop()
			fired, parked := firedWaiters(nodes)
			t.Logf("goroutines: base %d + %d the test's own, peak %d; waiters fired %d, peak parked %d",
				base, own, peak, fired, parked)
			if grew := peak - base - own; grew >= 10 {
				t.Fatalf("contended in-process writes and reads on one key started %d goroutines", grew)
			}
		})
	}
}

// TestCloseUnwindsParkedWaiters: Close ends every operation parked on a
// record — a remote read and an in-process read stalled on an RDLock
// whose VAL never comes, and an obsolete INV spinning on that write —
// within a second, with StatusErr / ErrClosed, and leaves no goroutine
// behind.
func TestCloseUnwindsParkedWaiters(t *testing.T) {
	nodes, net := newClientNet(t, 2, ddp.LinStrict, nil)
	client, nd := net.Endpoint(2), nodes[1]
	base := settledGoroutines()

	// Node 0's write to key 7 as its INV leaves it on node 1: RDLock
	// taken, value published, VAL still to come.
	newer := ddp.Timestamp{Node: 0, Version: 5}
	r := nd.Store().GetOrCreate(7)
	r.Lock()
	r.SnatchRDLock(newer)
	r.Publish([]byte("newer"), newer)
	r.Unlock()

	read := transport.ClientRequest{Op: transport.OpClientRead, Key: 7}
	if err := client.Send(1, transport.Frame{Kind: transport.FrameClientRequest, Client: 1, Req: read}); err != nil {
		t.Fatal(err)
	}
	readErr := make(chan error, 1)
	go func() {
		_, err := nd.Read(7)
		readErr <- err
	}()
	nd.handleMessage(ddp.Message{
		Kind: ddp.KindInv, From: 0, Key: 7, Value: []byte("older"),
		TS: ddp.Timestamp{Node: 0, Version: 3},
	})
	deadline := time.Now().Add(5 * time.Second)
	for r.Parked() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 3 operations parked", r.Parked())
		}
		time.Sleep(time.Millisecond)
	}
	if _, peak := firedWaiters(nodes[1:]); peak < 3 {
		t.Fatalf("record_waiters = %d with 3 parked", peak)
	}

	closed := time.Now()
	nd.Close()
	select {
	case f := <-client.Recv():
		if f.Resp.Status != transport.StatusErr {
			t.Errorf("parked remote read answered %v, want StatusErr", f.Resp.Status)
		}
	case <-time.After(time.Second):
		t.Error("parked remote read unanswered a second after Close")
	}
	select {
	case err := <-readErr:
		if err != ErrClosed {
			t.Errorf("parked in-process read returned %v, want ErrClosed", err)
		}
	case <-time.After(time.Until(closed.Add(time.Second))):
		t.Error("parked in-process read still blocked a second after Close")
	}
	if n := r.Parked(); n != 0 || nd.parked.Load() != 0 {
		t.Errorf("%d waiters on the record, %d counted, after Close", n, nd.parked.Load())
	}
	if now := settledGoroutines(); now > base {
		t.Errorf("goroutines %d after Close, %d before the waiters parked", now, base)
	}
}

// TestFailureDetectionAnswersStalledRead: a remote read parked on the
// RDLock of a write whose coordinator then fails is answered once the
// detector declares it failed and releases the lock.
func TestFailureDetectionAnswersStalledRead(t *testing.T) {
	nodes, net := newClientNet(t, 3, ddp.LinSynch, func(c *Config) {
		c.HeartbeatEvery = 10 * time.Millisecond
		c.FailAfter = 80 * time.Millisecond
		c.PersistDelay = 200 * time.Millisecond // hold the write open
	})
	client := net.Endpoint(3)
	done := make(chan struct{})
	go func() {
		nodes[2].Write(1, []byte("orphan"))
		close(done)
	}()
	// Once node 1 holds the write's RDLock, cut node 2 off: its VAL
	// never arrives.
	waitRDLocked(t, nodes[1], 1, done)
	net.Disconnect(2)

	read := transport.ClientRequest{Op: transport.OpClientRead, Key: 1}
	if err := client.Send(1, transport.Frame{Kind: transport.FrameClientRequest, Client: 1, Req: read}); err != nil {
		t.Fatal(err)
	}
	select {
	case f := <-client.Recv():
		if f.Resp.Status != transport.StatusOK {
			t.Fatalf("stalled read answered %v", f.Resp.Status)
		}
		if nodes[1].Alive()[2] {
			t.Error("read answered before node 2 was declared failed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read stalled on a failed coordinator's RDLock was never answered")
	}
}
