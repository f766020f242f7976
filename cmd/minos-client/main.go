// Command minos-client is a client endpoint of a minos-server cluster.
// It speaks the nodes' own frame protocol on their TCP port, so every
// operation goes through the node's admission frontend: the shedding,
// per-endpoint Lin-Scope scope and client-id multiplexing the benchmark
// measures.
//
// Usage:
//
//	minos-client -cluster 0=:7100,1=:7101,2=:7102 set 42 "hello world"
//	minos-client -cluster 2=:7102 get 42
//	minos-client -cluster 0=:7100 persist
//	minos-client -cluster 0=:7100 stats
//	minos-client -cluster 0=:7100,1=:7101,2=:7102 bench -rate 5000 -duration 1s
//
// A single operation goes to the lowest-numbered node listed; bench
// spreads its load over every listed node. Every run uses the same
// client ID, so a node keeps one link and, under Lin-Scope, one open
// scope for it: a persist flushes the writes earlier runs sent that
// node. Run one minos-client at a time per cluster.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"strconv"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/loadgen"
	"github.com/minos-ddp/minos/internal/transport"
	"github.com/minos-ddp/minos/internal/workload"
)

const (
	// clientID is the endpoint ID of single operations; bench's
	// connections take the IDs after it. It sits far above any node ID.
	clientID ddp.NodeID = 1 << 20
	// benchConns is how many client connections bench opens.
	benchConns = 4
	// respTimeout bounds the wait for a response, so a lost frame fails
	// the run instead of hanging it.
	respTimeout = 5 * time.Second
)

var errUsage = errors.New("usage")

func main() {
	cluster := flag.String("cluster", "0=127.0.0.1:7100", "comma-separated id=host:port of the nodes to use")
	flag.Parse()
	err := run(*cluster, flag.Args(), os.Stdout)
	if errors.Is(err, errUsage) {
		fmt.Fprintln(os.Stderr, `usage: minos-client [-cluster id=host:port,...] <command>
commands:
  get <key>
  set <key> <value>
  persist
  stats
  bench [-rate ops/s] [-duration d] [-model name]`)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "minos-client: %v\n", err)
		os.Exit(1)
	}
}

// run executes one command against the nodes in the cluster spec and
// prints its result to out.
func run(spec string, args []string, out io.Writer) error {
	addrs, err := transport.ParseCluster(spec)
	if err != nil {
		return err
	}
	nodes := make([]ddp.NodeID, 0, len(addrs))
	for id := range addrs {
		nodes = append(nodes, id)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	if len(args) == 0 {
		return errUsage
	}
	if args[0] == "bench" {
		return bench(addrs, nodes, args[1:], out)
	}
	req, err := request(args)
	if err != nil {
		return err
	}
	ep, err := dial(clientID, addrs, nodes[:1])
	if err != nil {
		return err
	}
	defer ep.Close()
	resp, err := call(ep, nodes[0], req)
	if err != nil {
		return err
	}
	switch {
	case resp.Status == transport.StatusShed:
		return fmt.Errorf("node %d shed the request (admission window full)", nodes[0])
	case resp.Status == transport.StatusNotFound:
		fmt.Fprintln(out, "NIL")
	case resp.Status != transport.StatusOK:
		return fmt.Errorf("node %d failed the request", nodes[0])
	case req.Op == transport.OpClientStats:
		fmt.Fprintln(out, string(resp.Value))
	case req.Op == transport.OpClientRead:
		fmt.Fprintln(out, "OK", string(resp.Value))
	default:
		fmt.Fprintln(out, "OK")
	}
	return nil
}

// request parses a single-operation command.
func request(args []string) (transport.ClientRequest, error) {
	var req transport.ClientRequest
	switch {
	case args[0] == "get" && len(args) == 2:
		req.Op = transport.OpClientRead
	case args[0] == "set" && len(args) == 3:
		req.Op, req.Value = transport.OpClientWrite, []byte(args[2])
	case args[0] == "persist" && len(args) == 1:
		return transport.ClientRequest{Op: transport.OpClientPersist}, nil
	case args[0] == "stats" && len(args) == 1:
		return transport.ClientRequest{Op: transport.OpClientStats}, nil
	default:
		return req, errUsage
	}
	key, err := strconv.ParseUint(args[1], 10, 64)
	if err != nil {
		return req, fmt.Errorf("bad key %q", args[1])
	}
	req.Key = ddp.Key(key)
	return req, nil
}

// dial opens client endpoint self and announces it to each of nodes.
// It listens on the local IP that routes to the first of them, since
// the nodes dial back to that address with their responses.
func dial(self ddp.NodeID, addrs map[ddp.NodeID]string, nodes []ddp.NodeID) (*transport.TCPTransport, error) {
	ip, err := localIP(addrs[nodes[0]])
	if err != nil {
		return nil, err
	}
	known := map[ddp.NodeID]string{self: net.JoinHostPort(ip, "0")}
	for _, id := range nodes {
		known[id] = addrs[id]
	}
	ep, err := transport.NewTCPTransport(self, known)
	if err != nil {
		return nil, err
	}
	for _, id := range nodes {
		if err := ep.Announce(id); err != nil {
			ep.Close()
			return nil, fmt.Errorf("announce to node %d: %w", id, err)
		}
	}
	return ep, nil
}

// localIP returns the local IP that routes to addr. Dialing UDP sends
// nothing; it only picks the route.
func localIP(addr string) (string, error) {
	c, err := net.Dial("udp", addr)
	if err != nil {
		return "", fmt.Errorf("route to %s: %w", addr, err)
	}
	defer c.Close()
	return c.LocalAddr().(*net.UDPAddr).IP.String(), nil
}

// call sends one request to node to and waits up to respTimeout for
// its response. The request carries a per-run id, so a response left
// over for an earlier run of the same client ID is not taken for it.
func call(ep *transport.TCPTransport, to ddp.NodeID, req transport.ClientRequest) (transport.ClientResponse, error) {
	id := uint64(time.Now().UnixNano())
	if err := ep.Send(to, transport.Frame{Kind: transport.FrameClientRequest, Client: id, Req: req}); err != nil {
		return transport.ClientResponse{}, fmt.Errorf("send to node %d: %w", to, err)
	}
	timeout := time.NewTimer(respTimeout)
	defer timeout.Stop()
	for {
		select {
		case f := <-ep.Recv():
			if f.Kind == transport.FrameClientResponse && f.Client == id {
				return f.Resp, nil
			}
		case <-timeout.C:
			return transport.ClientResponse{}, fmt.Errorf("no response from node %d within %v", to, respTimeout)
		}
	}
}

// bench runs loadgen's open-loop driver over benchConns client
// connections against the listed nodes and prints its one-line result.
// It fails if any operation errs or none completes.
func bench(addrs map[ddp.NodeID]string, nodes []ddp.NodeID, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	rate := fs.Float64("rate", 5000, "offered arrival rate in ops/s, across the listed nodes")
	duration := fs.Duration("duration", time.Second, "issue window")
	modelName := fs.String("model", "Lin-Synch", "the cluster's DDP model (Lin-Scope adds persist beats)")
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	model, err := ddp.ParseModel(*modelName)
	if err != nil {
		return err
	}
	eps := make([]transport.Transport, 0, benchConns)
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()
	for i := 0; i < benchConns; i++ {
		ep, err := dial(clientID+1+ddp.NodeID(i), addrs, nodes)
		if err != nil {
			return err
		}
		eps = append(eps, ep)
	}
	wl := workload.Default()
	wl.ValueSize = 128
	if model == ddp.LinScope {
		wl.PersistEvery = 8
	}
	res, err := loadgen.Drive(eps, nodes, model, loadgen.Load{Rate: *rate, Duration: *duration, Workload: wl})
	if err != nil {
		return err
	}
	res.Fabric = "tcp"
	fmt.Fprintln(out, res)
	if res.Errs > 0 || res.Completed == 0 {
		return fmt.Errorf("bench: %d errors, %d completed", res.Errs, res.Completed)
	}
	return nil
}
