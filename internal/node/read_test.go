package node

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
)

func TestReadIntoMatchesRead(t *testing.T) {
	nodes, _ := newCluster(t, 3, ddp.LinSynch, nil)
	for i := 0; i < 32; i++ {
		if err := nodes[i%3].Write(ddp.Key(i), []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 0, 64)
	for _, nd := range nodes {
		for i := 0; i < 32; i++ {
			want, err := nd.Read(ddp.Key(i))
			if err != nil {
				t.Fatal(err)
			}
			got, err := nd.ReadInto(ddp.Key(i), buf[:0])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("node %d key %d: ReadInto %q != Read %q", nd.ID(), i, got, want)
			}
			if got != nil {
				buf = got
			}
		}
	}
}

func TestReadIntoAbsentKey(t *testing.T) {
	nodes, _ := newCluster(t, 2, ddp.LinSynch, nil)
	v, err := nodes[0].ReadInto(999, make([]byte, 0, 8))
	if err != nil || v != nil {
		t.Fatalf("absent key: got (%q, %v), want (nil, nil)", v, err)
	}
	// A read must not create the record.
	if nodes[0].Store().Get(999) != nil {
		t.Fatal("read materialized a record for an absent key")
	}
}

// TestReadIntoZeroAlloc pins the tentpole's zero-alloc claim: on a
// quiesced cluster, a ReadInto with a big-enough recycled buffer
// performs no heap allocation.
func TestReadIntoZeroAlloc(t *testing.T) {
	nodes, _ := newCluster(t, 2, ddp.LinSynch, nil)
	if err := nodes[0].Write(1, bytes.Repeat([]byte{0xAA}, 128)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(1000, func() {
		v, err := nodes[0].ReadInto(1, buf[:0])
		if err != nil || len(v) != 128 {
			t.Fatalf("read: %q, %v", v, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ReadInto allocates %.1f/op, want 0", allocs)
	}
}

// TestReadIntoBlocksWhileRDLocked is TestReadBlocksWhileRDLocked for
// the buffered entry point: the seqlock fast path must defer to the
// §III-D stall while a write holds the RDLock.
func TestReadIntoBlocksWhileRDLocked(t *testing.T) {
	nodes, _ := newCluster(t, 2, ddp.LinSynch, func(c *Config) {
		c.PersistDelay = 30 * time.Millisecond // widen the write window
	})
	start := time.Now()
	done := make(chan struct{})
	go func() {
		nodes[0].Write(3, []byte("slow"))
		close(done)
	}()
	waitRDLocked(t, nodes[0], 3, done)
	v, err := nodes[0].ReadInto(3, make([]byte, 0, 16))
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if string(v) != "slow" {
		t.Fatalf("read %q during locked window", v)
	}
	if time.Since(start) < 30*time.Millisecond {
		t.Error("read returned before the write's persist window — lock not honored")
	}
}
