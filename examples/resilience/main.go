// Resilience: failure detection and log-shipping recovery (§III-E) on a
// live 3-node cluster. One node is partitioned away; the survivors
// detect it by timeout and keep committing writes; the node then rejoins
// and replays the log tail it missed.
//
// Run: go run ./examples/resilience
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
			Model:          ddp.LinSynch,
			HeartbeatEvery: 20 * time.Millisecond,
			FailAfter:      150 * time.Millisecond,
		}, net.Endpoint(ddp.NodeID(i)))
		nodes[i].Start()
		defer nodes[i].Close()
	}
	fmt.Println("3-node cluster with failure detection (heartbeat 20ms, timeout 150ms)")

	must(nodes[0].Write(1, []byte("before the failure")))
	fmt.Println("write 1 committed on the healthy cluster")

	// Partition node 2 away.
	net.Disconnect(2)
	fmt.Println("node 2 partitioned away...")

	// The next write blocks until the detector declares node 2 failed,
	// then completes with the surviving replicas.
	start := time.Now()
	must(nodes[0].Write(2, []byte("during the outage")))
	fmt.Printf("write 2 committed after %v (detector removed node 2 from the ack set)\n",
		time.Since(start).Round(time.Millisecond))
	for i := 0; i < 3; i++ {
		must(nodes[1].Write(ddp.Key(10+i), []byte(fmt.Sprintf("outage-%d", i))))
	}
	fmt.Printf("survivors committed 3 more writes; node 0 sees node 2 alive=%v\n",
		nodes[0].Alive()[2])

	// Heal the partition; node 2 pulls the missed log tail (§III-E:
	// "a designated node sends F a message with the log of all the
	// updates committed since F stopped responding").
	net.Reconnect(2)
	must(nodes[2].Recover(0))
	deadline := time.Now().Add(2 * time.Second)
	for {
		v, _ := nodes[2].Read(2)
		if string(v) == "during the outage" {
			break
		}
		if time.Now().After(deadline) {
			log.Fatal("node 2 never caught up")
		}
		time.Sleep(5 * time.Millisecond)
	}
	v10, _ := nodes[2].Read(10)
	fmt.Printf("node 2 recovered: key2=%q key10=%q, log applied %d persists\n",
		mustRead(nodes[2], 2), v10, nodes[2].Log().Len())
	fmt.Println("cluster whole again — writes from the recovered node work:")
	must(nodes[2].Write(99, []byte("from the returnee")))
	fmt.Printf("   node 0 reads key99=%q\n", mustRead(nodes[0], 99))
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func mustRead(n *node.Node, key ddp.Key) string {
	v, err := n.Read(key)
	if err != nil {
		log.Fatal(err)
	}
	return string(v)
}
