// Quickstart: a 3-node live MINOS-B cluster in one process.
//
// It brings up three nodes under <Lin, Synch> over the in-process
// transport, writes from one node, reads from another (linearizability:
// the read sees the write immediately), shows a concurrent-write
// conflict resolving via timestamps, and prints the durability state.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"sync"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/node"
	"github.com/minos-ddp/minos/internal/transport"
)

func main() {
	// 1. Build a 3-node cluster on the in-process fabric.
	net := transport.NewMemNetwork(3)
	nodes := make([]*node.Node, 3)
	for i := range nodes {
		nodes[i] = node.New(node.Config{Model: ddp.LinSynch}, net.Endpoint(ddp.NodeID(i)))
		nodes[i].Start()
		defer nodes[i].Close()
	}
	fmt.Println("3-node MINOS-B cluster up under <Lin, Synch>")

	// 2. Leaderless writes: any node coordinates.
	if err := nodes[0].Write(1, []byte("written at node 0")); err != nil {
		log.Fatal(err)
	}
	if err := nodes[2].Write(2, []byte("written at node 2")); err != nil {
		log.Fatal(err)
	}

	// 3. Linearizable reads anywhere, immediately.
	for _, n := range nodes {
		v1, _ := n.Read(1)
		v2, _ := n.Read(2)
		fmt.Printf("node %d reads: key1=%q key2=%q\n", n.ID(), v1, v2)
	}

	// 4. <Lin, Synch> means durable on return: every node's NVM log
	// already holds both writes.
	for _, n := range nodes {
		fmt.Printf("node %d log: %d persists applied\n", n.ID(), n.Log().Len())
	}

	// 5. Conflicting concurrent writes to one key: timestamps order
	// them; all replicas converge to a single winner.
	var wg sync.WaitGroup
	for _, n := range nodes {
		n := n
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := n.Write(99, []byte(fmt.Sprintf("candidate from node %d", n.ID()))); err != nil {
				log.Fatal(err)
			}
		}()
	}
	wg.Wait()
	winner, _ := nodes[0].Read(99)
	for _, n := range nodes {
		v, _ := n.Read(99)
		if string(v) != string(winner) {
			log.Fatalf("divergence: node %d has %q, node 0 has %q", n.ID(), v, winner)
		}
	}
	fmt.Printf("conflicting writes converged everywhere to: %q\n", winner)
}
