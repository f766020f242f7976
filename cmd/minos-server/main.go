// Command minos-server runs one live MINOS-B node over TCP — a
// deployable replica of the paper's distributed machine. Clients reach
// it on the same port as its peers: client frames go through the
// node's admission frontend (cmd/minos-client is such a client).
//
// Usage (3-node cluster on one machine):
//
//	minos-server -id 0 -cluster 0=:7100,1=:7101,2=:7102 &
//	minos-server -id 1 -cluster 0=:7100,1=:7101,2=:7102 &
//	minos-server -id 2 -cluster 0=:7100,1=:7101,2=:7102 &
//	minos-client -cluster 0=:7100 set 42 hello
//	minos-client -cluster 1=:7101 get 42
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/node"
	"github.com/minos-ddp/minos/internal/offload"
	"github.com/minos-ddp/minos/internal/transport"
)

func main() {
	id := flag.Int("id", 0, "this node's ID")
	cluster := flag.String("cluster", "", "comma-separated id=host:port for every node")
	modelName := flag.String("model", "Lin-Synch", "DDP model")
	persistDelay := flag.Duration("persist-delay", 1295*time.Nanosecond, "emulated NVM latency per persist")
	heartbeat := flag.Duration("heartbeat", 200*time.Millisecond, "failure-detector heartbeat interval")
	failAfter := flag.Duration("fail-after", time.Second, "silence before a peer is declared failed")
	recoverFrom := flag.Int("recover-from", -1, "on startup, pull the log tail from this node (-1 = none)")
	offloadOn := flag.Bool("offload", false, "enable the soft-NIC offload engine (MINOS-O)")
	flag.Parse()

	model, err := ddp.ParseModel(*modelName)
	if err != nil {
		log.Fatalf("minos-server: %v", err)
	}
	addrs, err := transport.ParseCluster(*cluster)
	if err != nil {
		log.Fatalf("minos-server: %v", err)
	}
	self := ddp.NodeID(*id)
	if _, ok := addrs[self]; !ok {
		log.Fatalf("minos-server: cluster spec lacks node %d", *id)
	}

	tr, err := transport.NewTCPTransport(self, addrs)
	if err != nil {
		log.Fatalf("minos-server: %v", err)
	}
	cfg := node.Config{
		Model:          model,
		PersistDelay:   *persistDelay,
		HeartbeatEvery: *heartbeat,
		FailAfter:      *failAfter,
	}
	if *offloadOn {
		cfg.Offload = &offload.Config{}
	}
	n := node.New(cfg, tr)
	n.Start()
	log.Printf("node %d up: model=%v addr=%s", self, model, tr.Addr())

	if *recoverFrom >= 0 {
		if err := n.Recover(ddp.NodeID(*recoverFrom)); err != nil {
			log.Printf("recovery request failed: %v", err)
		} else {
			log.Printf("recovery requested from node %d", *recoverFrom)
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Printf("node %d shutting down", self)
	n.Close()
}
