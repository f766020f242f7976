package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/loadgen"
	"github.com/minos-ddp/minos/internal/obs"
	"github.com/minos-ddp/minos/internal/transport"
)

// TestCommandsOnTCPCluster runs minos-client's commands against a
// 3-node Lin-Scope cluster over loopback TCP, the way minos-server
// nodes serve them: client frames on the protocol port, through each
// node's frontend.
func TestCommandsOnTCPCluster(t *testing.T) {
	lc, err := loadgen.StartCluster(loadgen.Cluster{Nodes: 3, Model: ddp.LinScope, Fabric: "tcp"},
		loadgen.Observe{}, loadgen.Offload{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	spec := func(ids ...int) string {
		parts := make([]string, len(ids))
		for i, id := range ids {
			parts[i] = fmt.Sprintf("%d=%s", id, lc.Eps[id].(*transport.TCPTransport).Addr())
		}
		return strings.Join(parts, ",")
	}
	cmd := func(t *testing.T, spec string, args ...string) string {
		t.Helper()
		var out bytes.Buffer
		if err := run(spec, args, &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		return strings.TrimSpace(out.String())
	}

	t.Run("set_get", func(t *testing.T) {
		if got := cmd(t, spec(0, 1, 2), "set", "42", "hello"); got != "OK" {
			t.Fatalf("set on node 0: %q", got)
		}
		if got := cmd(t, spec(2), "get", "42"); got != "OK hello" {
			t.Fatalf("get on node 2: %q", got)
		}
		if got := cmd(t, spec(1), "get", "43"); got != "NIL" {
			t.Fatalf("get of a missing key: %q", got)
		}
		cmd(t, spec(0), "set", "44", "")
		if got := cmd(t, spec(0), "get", "44"); got != "OK" {
			t.Fatalf("get of an empty value: %q", got)
		}
	})

	t.Run("errors", func(t *testing.T) {
		for _, args := range [][]string{{}, {"bogus"}, {"get"}, {"get", "notanumber"}, {"set", "1"}, {"persist", "1"}} {
			if err := run(spec(0), args, &bytes.Buffer{}); err == nil {
				t.Errorf("%q accepted", args)
			}
		}
	})

	t.Run("scope_persist", func(t *testing.T) {
		cmd(t, spec(0), "set", "700", "a")
		cmd(t, spec(0), "set", "701", "b")
		if got := cmd(t, spec(0), "persist"); got != "OK" {
			t.Fatalf("persist: %q", got)
		}
		ts := ddp.Timestamp{Node: 0, Version: 1}
		for _, nd := range lc.Nodes {
			for _, k := range []ddp.Key{700, 701} {
				if !nd.Log().LocallyDurable(k, ts) {
					t.Errorf("node %d: write to key %d not durable after persist", nd.ID(), k)
				}
			}
		}
	})

	t.Run("stats", func(t *testing.T) {
		var snap obs.Snapshot
		if err := json.Unmarshal([]byte(cmd(t, spec(0), "stats")), &snap); err != nil {
			t.Fatalf("stats is not a JSON snapshot: %v", err)
		}
		if snap.Counter("node.writes") == 0 || snap.Counter("node.client_served") == 0 {
			t.Fatalf("stats lacks node counters:\n%s", &snap)
		}
		if snap.Counter("transport.frames_sent") == 0 {
			t.Fatalf("stats lacks transport counters:\n%s", &snap)
		}
		served := func() int64 { return obs.Collect(lc.Nodes[1]).Counter("node.client_served") }
		before := served()
		cmd(t, spec(1), "set", "9", "x")
		if after := served(); after != before+1 {
			t.Fatalf("node 1 client_served %d -> %d after one set", before, after)
		}
	})

	t.Run("runs_reuse_one_link", func(t *testing.T) {
		cmd(t, spec(0), "get", "1")
		before := settledGoroutines()
		for i := 0; i < 20; i++ {
			cmd(t, spec(0), "get", "1")
		}
		if after := settledGoroutines(); after > before+2 {
			t.Fatalf("20 runs grew the goroutine count %d -> %d", before, after)
		}
	})

	t.Run("bench", func(t *testing.T) {
		out := cmd(t, spec(0, 1, 2), "bench", "-rate", "2000", "-duration", "200ms", "-model", "Lin-Scope")
		if !strings.Contains(out, "err 0,") {
			t.Fatalf("bench: %q", out)
		}
	})
}

// settledGoroutines returns runtime.NumGoroutine once it has held still
// for a few samples, so connection goroutines still exiting do not
// count.
func settledGoroutines() int {
	last, still := runtime.NumGoroutine(), 0
	for i := 0; i < 200 && still < 3; i++ {
		time.Sleep(5 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n == last {
			still++
		} else {
			last, still = n, 0
		}
	}
	return last
}
