// Fixture: the soft-NIC core-pool shape (internal/offload). A start
// loop spawns one named core loop per core; each is tied to the
// engine's WaitGroup and selects on the shared stop channel, so the
// analyzer sees the shutdown edge through the method call even though
// the spawn site is a bare loop statement. A pool of goroutines with
// neither edge is still a leak, pool or not.
package nicpool

import "sync"

type core struct{ q chan int }

type engine struct {
	wg    sync.WaitGroup
	stop  chan struct{}
	cores []*core
}

func handle(int) {}

func (e *engine) start() {
	for _, c := range e.cores {
		c := c
		e.wg.Add(1)
		go e.coreLoop(c)
	}
}

// coreLoop drains one core's vFIFO until the engine stops: the blessed
// run-to-completion worker shape.
func (e *engine) coreLoop(c *core) {
	defer e.wg.Done()
	for {
		select {
		case <-e.stop:
			return
		case v := <-c.q:
			handle(v)
		}
	}
}

// startDrain shows the same edge on a shared queue.
func (e *engine) startDrain(d chan int) {
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		for {
			select {
			case <-e.stop:
				return
			case v := <-d:
				handle(v)
			}
		}
	}()
}

// A busy core with no stop edge and no Done leaks, even spawned from
// the same pool loop by name.
func (e *engine) leakyStart() {
	for range e.cores {
		go e.spin() // want `goroutine is not tied to a WaitGroup`
	}
}

func (e *engine) spin() {
	for {
		handle(0)
	}
}
