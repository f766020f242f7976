package main

import (
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
)

// Every workload runs the same system size, so that a difference between
// two workloads is a difference in the layers they load and nothing else.
const (
	clusterNodes   = 5
	preloadRecords = 100_000
	zipfTheta      = 0.99
	valueSize      = 128
	persistDelay   = 1295 * time.Nanosecond
	clientConns    = 2 // one per vCPU of the reference box
	logicalClients = 10_000
)

// pacing is how the driver decides when the next operation is due.
type pacing int

const (
	// paceOpen sends on a seeded Poisson schedule whatever the cluster
	// does; latency runs from the intended send time.
	paceOpen pacing = iota
	// paceClosed keeps a fixed number of requests outstanding per
	// connection and sends the next on each response.
	paceClosed
	// paceDirect calls Node.ReadInto and Node.Write in-process, one
	// reader and one writer, with no client hop.
	paceDirect
)

// spec is one workload: which layers it loads, and how.
type spec struct {
	name string
	// why is BENCHMARK.json's one-line reason; the README has the
	// paragraph.
	why        string
	fabric     string
	model      ddp.Model
	writeRatio float64 // unused by paceDirect's two fixed-role callers
	offload    bool
	pace       pacing
	rate       float64 // paceOpen: offered op/s over all connections
	window     int     // paceOpen, paceClosed: outstanding requests per connection
}

var workloads = []spec{
	{
		name:       "ring_synch_open40k",
		why:        "independent users at 40k op/s, 50% writes: the only workload where queueing ahead of the node shows; coordinator, ring and NVM group commit block each write",
		fabric:     "ring",
		model:      ddp.LinSynch,
		writeRatio: 0.5,
		pace:       paceOpen,
		rate:       40_000,
		window:     256,
	},
	{
		name:       "tcp_synch_closed64",
		why:        "64 outstanding requests over loopback TCP: the transport codec, batching and syscalls do most of the work, nodes run executor lanes; ops_s is capacity",
		fabric:     "tcp",
		model:      ddp.LinSynch,
		writeRatio: 0.5,
		pace:       paceClosed,
		window:     32,
	},
	{
		name:       "ring_strict_offload_closed16",
		why:        "16 outstanding requests, 95% writes, Lin-Strict with the soft-NIC engine on: offload vFIFO/dFIFO and NVM group commit do most of the work",
		fabric:     "ring",
		model:      ddp.LinStrict,
		writeRatio: 0.95,
		offload:    true,
		pace:       paceClosed,
		window:     8,
	},
	{
		name:   "ring_renf_reader_writer",
		why:    "one in-process reader beside one writer on the same zipfian keys, Lin-REnf: the kv seqlock read path does the counted work and bypasses client hop and transport",
		fabric: "ring",
		model:  ddp.LinREnf,
		pace:   paceDirect,
	},
}

func findWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}
