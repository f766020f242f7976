// Scope persistency: group writes into a scope and make them durable
// everywhere with one [PERSIST]sc — the <Lin, Scope> model on a live
// cluster. Demonstrates that scoped writes return fast (no persist in
// the critical path) and that a session's Persist() is the durability
// barrier.
//
// Run: go run ./examples/scope
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/node"
	"github.com/minos-ddp/minos/internal/transport"
)

func main() {
	net := transport.NewMemNetwork(3)
	nodes := make([]*node.Node, 3)
	for i := range nodes {
		nodes[i] = node.New(node.Config{
			Model:        ddp.LinScope,
			PersistDelay: 100 * time.Microsecond, // pronounced NVM cost
		}, net.Endpoint(ddp.NodeID(i)))
		nodes[i].Start()
		defer nodes[i].Close()
	}
	n0 := nodes[0]
	fmt.Println("3-node cluster under <Lin, Scope>")

	// A session's scope groups related updates: say, one user's
	// checkout. Its first write opens the scope, Persist flushes it.
	checkout := n0.Session()
	keys := []ddp.Key{101, 102, 103, 104}
	writeStart := time.Now()
	for i, k := range keys {
		if err := checkout.Write(k, []byte(fmt.Sprintf("order-line-%d", i))); err != nil {
			log.Fatal(err)
		}
	}
	writeDur := time.Since(writeStart)
	fmt.Printf("4 scoped writes returned in %v — persists deferred, visibility immediate:\n", writeDur.Round(time.Microsecond))
	v, _ := nodes[2].Read(102)
	fmt.Printf("   node 2 already reads key 102 = %q\n", v)

	durableBefore := nodes[1].Log().Len()
	persistStart := time.Now()
	if err := checkout.Persist(); err != nil {
		log.Fatal(err)
	}
	persistDur := time.Since(persistStart)
	durableAfter := nodes[1].Log().Len()
	fmt.Printf("[PERSIST]sc flushed the scope in %v: node 1's log applied %d -> %d persists\n",
		persistDur.Round(time.Microsecond), durableBefore, durableAfter)

	// Every node now has every scoped write durable.
	for _, n := range nodes {
		for _, k := range keys {
			if !n.Log().LocallyDurable(k, ddp.Timestamp{Node: 0, Version: 1}) {
				log.Fatalf("node %d: key %d not durable after the flush", n.ID(), k)
			}
		}
	}
	fmt.Println("scope durable on every replica — a failure can no longer lose it")
}
