package loadgen

import (
	"fmt"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/node"
	"github.com/minos-ddp/minos/internal/obs"
	"github.com/minos-ddp/minos/internal/offload"
	"github.com/minos-ddp/minos/internal/transport"
)

// LiveCluster is a running MINOS cluster plus (optionally) client
// endpoints wired to it. Run drives it through the client endpoints;
// a caller that asks for zero client connections calls the nodes
// directly instead.
type LiveCluster struct {
	Nodes []*node.Node
	// Eps holds one transport endpoint per node, indexed by NodeID.
	Eps []transport.Transport
	// ClientEps holds the client-side endpoints (IDs above the node
	// range); empty when the cluster was started without clients.
	ClientEps []transport.Transport
	// Tracers holds each node's span recorder (nil entries when
	// tracing is off).
	Tracers []*obs.Tracer
}

// StartCluster builds the fabric, creates and starts the nodes, and
// wires clientConns client endpoints (0 for none). On error everything
// already started is torn down.
func StartCluster(cl Cluster, ob Observe, off Offload, clientConns int) (*LiveCluster, error) {
	cl = cl.withDefaults()
	lc := &LiveCluster{}
	if err := lc.buildFabric(cl, clientConns); err != nil {
		return nil, err
	}
	lc.Nodes = make([]*node.Node, cl.Nodes)
	lc.Tracers = make([]*obs.Tracer, cl.Nodes)
	for i := range lc.Nodes {
		if ob.Trace {
			lc.Tracers[i] = obs.NewTracer(ob.TraceCapacity)
			lc.Tracers[i].SetSampleEvery(ob.TraceSample)
		}
		cfg := node.Config{
			Model:        cl.Model,
			PersistDelay: cl.PersistDelay,
			ClientWindow: cl.ClientWindow,
			Tracer:       lc.Tracers[i],
		}
		if off.Enabled {
			cfg.Offload = off.Config
			if cfg.Offload == nil {
				cfg.Offload = &offload.Config{}
			}
		}
		lc.Nodes[i] = node.New(cfg, lc.Eps[i])
		lc.Nodes[i].Start()
	}
	return lc, nil
}

// Close tears the cluster down: nodes first (closing their transports),
// then any client endpoints.
func (lc *LiveCluster) Close() {
	for _, nd := range lc.Nodes {
		nd.Close()
	}
	for _, ep := range lc.ClientEps {
		ep.Close()
	}
}

// Collect merges every node's and endpoint's instruments into one
// snapshot (same-named instruments sum in Compact — cluster totals).
func (lc *LiveCluster) Collect() *obs.Snapshot {
	snap := &obs.Snapshot{}
	for _, nd := range lc.Nodes {
		nd.Collect(snap)
	}
	for _, ep := range lc.Eps {
		if src, ok := ep.(obs.Source); ok {
			src.Collect(snap)
		}
	}
	snap.Compact()
	return snap
}

// Spans concatenates the trace spans recorded across the cluster.
func (lc *LiveCluster) Spans() []obs.Span {
	var out []obs.Span
	for _, tr := range lc.Tracers {
		if tr != nil {
			out = append(out, tr.Spans()...)
		}
	}
	return out
}

// buildFabric creates the node endpoints plus clientConns client
// endpoints with IDs cl.Nodes..cl.Nodes+clientConns-1. Client
// endpoints peer with every node but never appear in a node's protocol
// peer set, so broadcasts and heartbeats stay inside the cluster.
func (lc *LiveCluster) buildFabric(cl Cluster, clientConns int) error {
	fabric := cl.Fabric
	if fabric == "" {
		fabric = "mem"
	}
	lc.Eps = make([]transport.Transport, cl.Nodes)
	lc.ClientEps = make([]transport.Transport, clientConns)
	switch fabric {
	case "mem":
		net := transport.NewMemNetworkClients(cl.Nodes, clientConns)
		for i := range lc.Eps {
			lc.Eps[i] = net.Endpoint(ddp.NodeID(i))
		}
		for i := range lc.ClientEps {
			lc.ClientEps[i] = net.Endpoint(ddp.NodeID(cl.Nodes + i))
		}
		return nil
	case "ring":
		net := transport.NewRingNetworkWithClients(cl.Nodes, clientConns)
		for i := range lc.Eps {
			lc.Eps[i] = net.Endpoint(ddp.NodeID(i))
		}
		for i := range lc.ClientEps {
			lc.ClientEps[i] = net.Endpoint(ddp.NodeID(cl.Nodes + i))
		}
		return nil
	case "tcp":
		return lc.buildTCP(cl, clientConns)
	default:
		return fmt.Errorf("loadgen: unknown fabric %q (want mem, ring, or tcp)", fabric)
	}
}

// buildTCP meshes the nodes over loopback TCP, then gives each client
// connection its own transport that knows every node's address and
// announces its own ephemeral listen address with a hello on each link
// before any request can need a response path.
func (lc *LiveCluster) buildTCP(cl Cluster, clientConns int) error {
	closeAll := func() {
		for _, ep := range lc.Eps {
			if ep != nil {
				ep.Close()
			}
		}
		for _, ep := range lc.ClientEps {
			if ep != nil {
				ep.Close()
			}
		}
	}
	tcps := make([]*transport.TCPTransport, cl.Nodes)
	for i := range tcps {
		tr, err := transport.NewTCPTransport(ddp.NodeID(i),
			map[ddp.NodeID]string{ddp.NodeID(i): "127.0.0.1:0"})
		if err != nil {
			closeAll()
			return fmt.Errorf("loadgen: tcp fabric: %w", err)
		}
		tcps[i] = tr
		lc.Eps[i] = tr
	}
	for i := range tcps {
		for j := range tcps {
			if i != j {
				tcps[i].SetPeerAddr(ddp.NodeID(j), tcps[j].Addr())
			}
		}
	}
	for c := 0; c < clientConns; c++ {
		self := ddp.NodeID(cl.Nodes + c)
		addrs := map[ddp.NodeID]string{self: "127.0.0.1:0"}
		for i := range tcps {
			addrs[ddp.NodeID(i)] = tcps[i].Addr()
		}
		tr, err := transport.NewTCPTransport(self, addrs)
		if err != nil {
			closeAll()
			return fmt.Errorf("loadgen: tcp client conn %d: %w", c, err)
		}
		lc.ClientEps[c] = tr
		for i := range tcps {
			if err := tr.Announce(ddp.NodeID(i)); err != nil {
				closeAll()
				return fmt.Errorf("loadgen: tcp client conn %d announce: %w", c, err)
			}
		}
	}
	return nil
}
