package main

import (
	"fmt"
	"time"

	"github.com/minos-ddp/minos/internal/ddp"
	"github.com/minos-ddp/minos/internal/kv"
	"github.com/minos-ddp/minos/internal/loadgen"
	"github.com/minos-ddp/minos/internal/nvm"
	"github.com/minos-ddp/minos/internal/transport"
	"github.com/minos-ddp/minos/internal/workload"
)

// A probe times calls into one layer's public functions from outside,
// with the workload's fabric, model and value size and nothing else
// running. Each reports the median over its batches of the batch's mean
// time per call, and is recorded as one span with a child per batch.

// prober runs the probes of one traced run.
type prober struct {
	sp      spec
	seed    int64
	records int
	batches int
	shrink  int // divides every batch's call count (the smoke preset)
	spans   *spanLog
	out     map[string]float64
	sink    int
}

// run times batches of perBatch calls of f and stores the median batch's
// ns per call, divided by unitNs, under name.
func (p *prober) run(name string, perBatch int, unitNs float64, f func(i int)) {
	perBatch = max(perBatch/p.shrink, 1)
	per := make([]float64, p.batches)
	begin := now()
	id := p.spans.ids.Add(1)
	i := 0
	for b := range per {
		from := now()
		for j := 0; j < perBatch; j++ {
			f(i)
			i++
		}
		to := now()
		p.spans.put(id, "batch", from, to)
		per[b] = float64(to-from) / float64(perBatch)
	}
	p.spans.store(span{ID: id, Parent: p.spans.root, Name: "probe." + name, Start: begin, End: now()})
	p.out[name] = median(per) / unitNs
}

func (p *prober) keys(n int) []ddp.Key {
	g := workload.NewGenerator(workload.Config{
		Records: p.records, Dist: workload.Zipfian, ZipfTheta: zipfTheta, ValueSize: valueSize,
	}, p.seed+104729)
	keys := make([]ddp.Key, n)
	for i := range keys {
		keys[i] = ddp.Key(g.Next().Key)
	}
	return keys
}

func (p *prober) all() error {
	const mask = 1<<14 - 1
	keys := p.keys(mask + 1)
	val := stampedValue(p.seed)

	gen := workload.NewGenerator(workload.Config{
		Records: p.records, WriteRatio: 0.5, Dist: workload.Zipfian, ZipfTheta: zipfTheta, ValueSize: valueSize,
	}, p.seed)
	p.run("workload.next_ns", 10_000, 1, func(int) { p.sink += int(gen.Next().Key) })

	inv := transport.Frame{Kind: transport.FrameMessage, From: 1, Msg: ddp.Message{
		Kind: ddp.KindInv, From: 1, Key: 42, TS: ddp.Timestamp{Node: 1, Version: 7}, Value: val, Size: ddp.DataSize(len(val)),
	}}
	var wire []byte
	p.run("transport.encode_ns", 10_000, 1, func(int) { wire = transport.AppendFrame(wire[:0], inv) })
	var decErr error
	p.run("transport.decode_ns", 10_000, 1, func(int) {
		f, err := transport.DecodeFrameBorrowed(wire[4:])
		if err != nil {
			decErr = err
		}
		p.sink += len(f.Msg.Value)
	})
	if decErr != nil {
		return fmt.Errorf("probe transport.decode_ns: %w", decErr)
	}

	if err := p.rtts(); err != nil {
		return err
	}
	p.bareKV(keys, mask, val)
	p.bareNVM(keys, mask, val)
	return p.idleNodes(keys, mask, val)
}

// rtts ping-pongs one heartbeat-sized frame between two endpoints of
// each fabric.
func (p *prober) rtts() error {
	ring := transport.NewRingNetwork(2)
	mem := transport.NewMemNetwork(2)
	var tcp [2]*transport.TCPTransport
	for i := range tcp {
		var err error
		tcp[i], err = transport.NewTCPTransport(ddp.NodeID(i), map[ddp.NodeID]string{ddp.NodeID(i): "127.0.0.1:0"})
		if err != nil {
			return fmt.Errorf("probe transport.tcp_rtt_us: %w", err)
		}
	}
	tcp[0].SetPeerAddr(1, tcp[1].Addr())
	tcp[1].SetPeerAddr(0, tcp[0].Addr())
	for _, fab := range []struct {
		name  string
		calls int
		a, b  transport.Transport
	}{
		{"transport.ring_rtt_us", 500, ring.Endpoint(0), ring.Endpoint(1)},
		{"transport.mem_rtt_us", 500, mem.Endpoint(0), mem.Endpoint(1)},
		{"transport.tcp_rtt_us", 200, tcp[0], tcp[1]},
	} {
		echoed := make(chan struct{})
		go func() {
			defer close(echoed)
			for f := range fab.b.Recv() {
				_ = fab.b.Send(0, f) // a lost echo fails the ping below
			}
		}()
		var err error
		ping := transport.Frame{Kind: transport.FrameRecoveryRequest, Since: 1}
		p.run(fab.name, fab.calls, 1e3, func(int) {
			if err != nil {
				return
			}
			if err = fab.a.Send(1, ping); err != nil {
				return
			}
			select {
			case <-fab.a.Recv():
			case <-time.After(drainGrace):
				err = fmt.Errorf("no echo within %v", drainGrace)
			}
		})
		fab.a.Close()
		fab.b.Close()
		<-echoed
		if err != nil {
			return fmt.Errorf("probe %s: %w", fab.name, err)
		}
	}
	return nil
}

// bareKV times the record layer with no node around it.
func (p *prober) bareKV(keys []ddp.Key, mask int, val []byte) {
	store := kv.NewStore(64)
	store.Preload(p.records, val)
	var buf []byte
	p.run("kv.get_ns", 20_000, 1, func(i int) { p.sink += int(store.Get(keys[i&mask]).Key) })
	recs := make([]*kv.Record, len(keys))
	for i, k := range keys {
		recs[i] = store.Get(k)
	}
	p.run("kv.readinto_ns", 20_000, 1, func(i int) {
		if v, ok := recs[i&mask].ReadInto(buf); ok {
			buf = v[:0]
		}
	})
	p.run("kv.publish_ns", 20_000, 1, func(i int) {
		r := recs[i&mask]
		r.Lock()
		r.Publish(val, ddp.Timestamp{Version: r.Meta.VolatileTS.Version + 1})
		r.Unlock()
	})
}

// bareNVM times the log and the group-commit pipeline with one caller.
func (p *prober) bareNVM(keys []ddp.Key, mask int, val []byte) {
	log := nvm.NewLog()
	p.run("nvm.append_ns", 10_000, 1, func(i int) {
		log.Append(keys[i&mask], ddp.Timestamp{Version: ddp.Version(i + 1)}, val, 0)
	})
	pipe := nvm.NewPipeline(nvm.NewLog(), nvm.PipelineConfig{Lat: nvm.LatencyModel{FixedNs: persistDelay.Nanoseconds()}})
	p.run("nvm.persist_serial_us", 250, 1e3, func(i int) {
		pipe.Persist(keys[i&mask], ddp.Timestamp{Version: ddp.Version(i + 1)}, val, 0)
	})
	pipe.Close()
}

// idleNodes times one caller against an otherwise idle cluster of the
// workload's configuration (the floor under the client-path write
// latency), and against a single node (the same with no replication).
func (p *prober) idleNodes(keys []ddp.Key, mask int, val []byte) error {
	for _, c := range []struct {
		nodes int
		write string
	}{{clusterNodes, "node.write_serial_us"}, {1, "node.write_1node_us"}} {
		lc, err := loadgen.StartCluster(loadgen.Cluster{
			Nodes: c.nodes, Model: p.sp.model, PersistDelay: persistDelay, Fabric: p.sp.fabric,
		}, loadgen.Observe{}, loadgen.Offload{Enabled: p.sp.offload}, 0)
		if err != nil {
			return fmt.Errorf("probe %s: %w", c.write, err)
		}
		for _, nd := range lc.Nodes {
			nd.Store().Preload(p.records, val)
		}
		nd := lc.Nodes[0]
		if c.nodes > 1 {
			var buf []byte
			p.run("node.read_ns", 20_000, 1, func(i int) {
				if v, err := nd.ReadInto(keys[i&mask], buf); err == nil {
					buf = v[:0]
				}
			})
		}
		p.run(c.write, 250, 1e3, func(i int) {
			if werr := nd.Write(keys[i&mask], val); werr != nil {
				err = werr
			}
		})
		lc.Close()
		if err != nil {
			return fmt.Errorf("probe %s: %w", c.write, err)
		}
	}
	return nil
}
