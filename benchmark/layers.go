package main

import (
	"runtime"

	"github.com/minos-ddp/minos/internal/loadgen"
	"github.com/minos-ddp/minos/internal/obs"
	"github.com/minos-ddp/minos/internal/transport"
)

// counts is the cluster's instruments at one instant: counters summed
// and gauges maximised over the nodes and every endpoint, the client
// connections' included. A histogram gives the two counters name.count
// and name.sum.
type counts struct {
	sum map[string]int64
	max map[string]int64
}

func collect(lc *loadgen.LiveCluster) counts {
	c := counts{sum: map[string]int64{}, max: map[string]int64{}}
	add := func(src obs.Source) {
		snap := &obs.Snapshot{}
		src.Collect(snap)
		for _, p := range snap.Counters {
			c.sum[p.Name] += p.Value
		}
		for _, p := range snap.Gauges {
			c.max[p.Name] = max(c.max[p.Name], p.Value)
		}
		for _, p := range snap.Histograms {
			c.sum[p.Name+".count"] += p.Count
			c.sum[p.Name+".sum"] += p.Sum
		}
	}
	for _, nd := range lc.Nodes {
		add(nd)
	}
	for _, eps := range [][]transport.Transport{lc.Eps, lc.ClientEps} {
		for _, ep := range eps {
			if src, ok := ep.(obs.Source); ok {
				add(src)
			}
		}
	}
	return c
}

// since returns the counters' growth from an earlier instant.
func (c counts) since(before counts) map[string]int64 {
	d := make(map[string]int64, len(c.sum))
	for name, v := range c.sum {
		d[name] = v - before.sum[name]
	}
	return d
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// counterMetrics turns the instruments' growth over the traced rounds
// into the per-layer count metrics. ops and writes are the driver's OK
// operations over the same rounds.
func counterMetrics(d map[string]int64, gauges map[string]int64, ops, writes int64) map[string]float64 {
	routed := d["offload.frames_nic"] + d["offload.frames_host"]
	return map[string]float64{
		"transport.frames_per_op":    ratio(d["transport.frames_sent"], ops),
		"transport.bytes_per_op":     ratio(d["transport.bytes_sent"], ops),
		"transport.frames_per_batch": ratio(d["transport.frames_sent"], d["transport.batches_sent"]),
		"transport.encodes_per_op":   ratio(d["transport.encodes"], ops),
		"transport.send_errors":      float64(d["transport.send_errors"]),
		"transport.redials":          float64(d["transport.redials"]),

		"node.client_shed":            float64(d["node.client_shed"]),
		"node.client_queue_depth_max": float64(gauges["node.client_queue_depth_max"]),
		"node.exec_lane_depth_max":    float64(gauges["node.exec_lane_depth_max"]),
		"node.invs_per_write":         ratio(d["node.invs_handled"], writes),
		"node.obsolete_write_frac":    ratio(d["node.obsolete_writes"], d["node.writes"]),
		"node.vals_per_batch":         ratio(d["node.vals_staged"], d["node.val_batches"]),

		"nvm.entries_per_batch":     ratio(d["nvm.pipeline.entries"], d["nvm.pipeline.batches"]),
		"nvm.drain_mean_us":         ratio(d["nvm.pipeline.drain_ns.sum"], d["nvm.pipeline.drain_ns.count"]) / 1e3,
		"nvm.spin_yields_per_batch": ratio(d["nvm.pipeline.spin_yields"], d["nvm.pipeline.batches"]),
		"nvm.timer_parks_per_batch": ratio(d["nvm.pipeline.timer_parks"], d["nvm.pipeline.batches"]),

		"offload.nic_frac":                ratio(d["offload.frames_nic"], routed),
		"offload.promotions":              float64(d["offload.promotions"]),
		"offload.demotions":               float64(d["offload.demotions"]),
		"offload.vfifo_overflows":         float64(d["offload.vfifo_overflows"]),
		"offload.threshold_final":         float64(gauges["offload.threshold"]),
		"offload.dfifo_entries_per_batch": ratio(d["offload.dfifo_entries"], d["offload.dfifo_batches"]),

		"obs.spans_dropped": float64(d["trace.spans_dropped"]),
	}
}

// phaseMeans is the node tracer's mean time per write phase, in us,
// under the obs.<phase>_us names. The seven write phases are the
// coordinator's; the two NIC phases come from whichever role ran on a
// soft-NIC core.
func phaseMeans(spans []obs.Span) map[string]float64 {
	var sum, n [obs.NumPhases]float64
	for _, s := range spans {
		nic := s.Phase == obs.PhaseNICQueue || s.Phase == obs.PhaseNICHandle
		if s.Phase >= obs.NumPhases || s.End < s.Start || (!nic && s.Role != obs.RoleCoordinator) {
			continue
		}
		sum[s.Phase] += float64(s.Dur())
		n[s.Phase]++
	}
	out := make(map[string]float64, obs.NumPhases)
	for _, p := range obs.Phases() {
		if n[p] > 0 {
			out["obs."+p.String()+"_us"] = sum[p] / n[p] / 1e3
		}
	}
	return out
}

// procStats is the Go runtime's view of the process at one instant.
type procStats struct {
	mallocs uint64
	gcs     uint32
	pauseNs uint64
	heap    uint64
}

func readProc() procStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procStats{mallocs: m.Mallocs, gcs: m.NumGC, pauseNs: m.PauseTotalNs, heap: m.HeapAlloc}
}

// liveHeap is the heap in use after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	return readProc().heap
}
