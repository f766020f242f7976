package kv

import (
	"sync"
	"testing"

	"github.com/minos-ddp/minos/internal/ddp"
)

// TestRecordWaiterList: a parked waiter stays parked while its
// condition is false and fires once, on the release that makes it true
// — the RDLock release for a read stall, the glb_volatileTS and
// glb_durableTS advances for the two obsolete-write spins.
func TestRecordWaiterList(t *testing.T) {
	s := NewStore(1)
	r := s.GetOrCreate(1)
	older := ddp.Timestamp{Node: 0, Version: 1}
	obs := ddp.Timestamp{Node: 1, Version: 2}

	r.Lock()
	defer r.Unlock()
	r.SnatchRDLock(obs)
	r.Park(Waiter{Until: UntilUnlocked, Client: 1})
	r.Park(Waiter{Until: UntilConsistent, Obs: obs, Client: 2})
	r.Park(Waiter{Until: UntilDurable, Obs: obs, Client: 3})

	fire := func(want ...uint64) {
		t.Helper()
		ready := r.Fire(nil, false)
		if len(ready) != len(want) {
			t.Fatalf("fired %d waiters %+v, want clients %v", len(ready), ready, want)
		}
		for i, w := range ready {
			if w.Client != want[i] {
				t.Fatalf("fired client %d, want %d", w.Client, want[i])
			}
		}
	}
	fire() // still locked, nothing advanced
	r.Meta.AdvanceGlbVolatile(older)
	fire() // an older write's consistency does not finish the spin
	r.Meta.AdvanceGlbVolatile(obs)
	fire(2)
	r.ReleaseRDLockIfOwner(older)
	fire() // a non-owner's release leaves the read stalled
	r.ReleaseRDLockIfOwner(obs)
	fire(1)
	r.Meta.AdvanceGlbDurable(obs)
	fire(3)
	if r.Parked() != 0 {
		t.Fatalf("%d waiters left after every condition held", r.Parked())
	}

	r.Park(Waiter{Until: UntilDurable, Obs: ddp.Timestamp{Node: 0, Version: 9}, Client: 4})
	if all := r.Fire(nil, true); len(all) != 1 || all[0].Client != 4 || r.Parked() != 0 {
		t.Fatalf("Fire(all) returned %+v, left %d", all, r.Parked())
	}
}

// TestRecordWaitersRaceReleases: goroutines park read stalls on one
// record while others take and release its RDLock and fire; every
// waiter is fired exactly once — none lost, none twice (run with
// -race).
func TestRecordWaitersRaceReleases(t *testing.T) {
	s := NewStore(1)
	r := s.GetOrCreate(1)
	const parkers, parks, writers, writes = 4, 200, 2, 200
	fired := make([]int, parkers*parks)
	var wg sync.WaitGroup
	var ready []Waiter
	fire := func() { // caller holds the lock
		ready = r.Fire(ready[:0], false)
		for _, w := range ready {
			fired[w.Client]++
		}
	}
	for p := 0; p < parkers; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < parks; i++ {
				r.Lock()
				w := Waiter{Until: UntilUnlocked, Client: uint64(p*parks + i)}
				if r.Meta.RDLocked() {
					r.Park(w)
				} else {
					fired[w.Client]++ // free: the read proceeds at once
				}
				r.Unlock()
			}
		}()
	}
	for g := 0; g < writers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= writes; i++ {
				ts := ddp.Timestamp{Node: ddp.NodeID(g), Version: ddp.Version(i)}
				r.Lock()
				r.SnatchRDLock(ts)
				r.Unlock()
				r.Lock()
				r.ReleaseRDLockIfOwner(ts)
				fire()
				r.Unlock()
			}
		}()
	}
	wg.Wait()
	r.Lock()
	r.ForceReleaseRDLock()
	fire()
	r.Unlock()
	for c, n := range fired {
		if n != 1 {
			t.Fatalf("waiter %d fired %d times, want once", c, n)
		}
	}
}

// TestRecordConcurrentMetadata: racing updates under the record lock
// keep the metadata consistent (run with -race).
func TestRecordConcurrentMetadata(t *testing.T) {
	s := NewStore(4)
	r := s.GetOrCreate(9)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= 50; i++ {
				ts := ddp.Timestamp{Node: ddp.NodeID(g), Version: ddp.Version(i)}
				r.Lock()
				if !r.Meta.Obsolete(ts) && r.Meta.VolatileTS.Less(ts) {
					r.Meta.ApplyVolatile(ts)
				}
				r.Meta.AdvanceGlbVolatile(ts)
				r.Unlock()
			}
		}()
	}
	wg.Wait()
	r.Lock()
	defer r.Unlock()
	if r.Meta.VolatileTS.Version != 50 {
		t.Fatalf("final version %v, want 50", r.Meta.VolatileTS)
	}
	if r.Meta.GlbVolatileTS != (ddp.Timestamp{Node: 7, Version: 50}) {
		t.Fatalf("glb %v, want <7,50>", r.Meta.GlbVolatileTS)
	}
}
