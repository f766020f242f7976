package node_test

import (
	"fmt"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/node"
	"github.com/minos-ddp/minos/internal/transport"
)

// Example shows the minimal lifecycle: build a cluster, write anywhere,
// read anywhere.
func Example() {
	net := transport.NewMemNetwork(3)
	nodes := make([]*node.Node, 3)
	for i := range nodes {
		nodes[i] = node.New(node.Config{Model: ddp.LinSynch}, net.Endpoint(ddp.NodeID(i)))
		nodes[i].Start()
		defer nodes[i].Close()
	}

	if err := nodes[0].Write(42, []byte("leaderless")); err != nil {
		panic(err)
	}
	v, err := nodes[2].Read(42)
	if err != nil {
		panic(err)
	}
	fmt.Println(string(v))
	// Output: leaderless
}

// ExampleNode_Persist shows the <Lin, Scope> durability barrier on a
// node's default session: its writes return fast, and Persist makes
// every one of them durable everywhere.
func ExampleNode_Persist() {
	net := transport.NewMemNetwork(2)
	nodes := make([]*node.Node, 2)
	for i := range nodes {
		nodes[i] = node.New(node.Config{Model: ddp.LinScope}, net.Endpoint(ddp.NodeID(i)))
		nodes[i].Start()
		defer nodes[i].Close()
	}
	n := nodes[0]

	for key := ddp.Key(1); key <= 3; key++ {
		if err := n.Write(key, []byte("order-line")); err != nil {
			panic(err)
		}
	}
	if err := n.Persist(); err != nil { // the durability barrier
		panic(err)
	}
	durable := nodes[1].Log().LocallyDurable(2, ddp.Timestamp{Node: 0, Version: 1})
	fmt.Println("scope durable on the follower:", durable)
	// Output: scope durable on the follower: true
}

// ExampleNode_Recover shows a node catching up after missing writes.
func ExampleNode_Recover() {
	net := transport.NewMemNetwork(2)
	nodes := make([]*node.Node, 2)
	for i := range nodes {
		nodes[i] = node.New(node.Config{Model: ddp.LinSynch}, net.Endpoint(ddp.NodeID(i)))
		nodes[i].Start()
		defer nodes[i].Close()
	}
	if err := nodes[0].Write(7, []byte("v1")); err != nil {
		panic(err)
	}
	// After a restart or partition, a node pulls the log tail it is
	// missing from a designated live peer (§III-E). Safe to call even
	// when already up to date.
	if err := nodes[1].Recover(0); err != nil {
		panic(err)
	}
	fmt.Println("recovery requested")
	// Output: recovery requested
}
