// Fixture: the durability-pipeline shapes the live node uses
// (group-commit drain engines). Every pattern here is the blessed form
// — mutexes guard only the batch swap, wake signalling is a
// select-with-default on a buffered channel, and the modeled device
// sleep selects on stop outside any lock. Expect zero diagnostics.
package pipeline

import (
	"sync"
	"time"
)

type entry struct {
	key  uint64
	then func()
}

type batch struct {
	entries []entry
	done    chan struct{}
}

type queue struct {
	mu   sync.Mutex
	cur  *batch
	wake chan struct{} // cap 1
}

type pipe struct {
	queues []*queue
	stop   chan struct{}
	wg     sync.WaitGroup
}

// enqueue appends to the current batch under the queue lock, then
// signals the drain worker after releasing it. The non-blocking send
// (select with default) is the blessed wake idiom: a pending signal
// already covers the new entry.
func (p *pipe) enqueue(q *queue, e entry) *batch {
	q.mu.Lock()
	b := q.cur
	b.entries = append(b.entries, e)
	q.mu.Unlock()
	select {
	case q.wake <- struct{}{}:
	default:
	}
	return b
}

// persist blocks on the batch's single completion wake; no lock is
// held across the wait.
func (p *pipe) persist(q *queue, e entry) bool {
	b := p.enqueue(q, e)
	select {
	case <-b.done:
		return true
	case <-p.stop:
		return false
	}
}

// drainWorker is the dFIFO engine shape: the lock covers only the
// batch swap; the modeled NVM sleep is a stop-aware timer select taken
// with no lock held, so shutdown never waits out a device delay.
func (p *pipe) drainWorker(q *queue) {
	defer p.wg.Done()
	for {
		select {
		case <-p.stop:
			return
		case <-q.wake:
		}
		for {
			q.mu.Lock()
			b := q.cur
			if len(b.entries) == 0 {
				q.mu.Unlock()
				break
			}
			q.cur = &batch{done: make(chan struct{})}
			q.mu.Unlock()

			t := time.NewTimer(time.Microsecond)
			select {
			case <-p.stop:
				t.Stop()
				return
			case <-t.C:
			}
			for _, e := range b.entries {
				if e.then != nil {
					e.then()
				}
			}
			close(b.done)
		}
	}
}
