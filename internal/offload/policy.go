package offload

// This file is the adaptive half of the offload boundary: a pure
// feedback rule that retunes the promotion threshold once per epoch
// from what the engine observed — the control loop of the SmartNIC
// flow-offload literature (offload, over-offload and drop counts per
// round; here the host-vs-NIC cost split is the over-offload signal),
// applied to MINOS's per-key heat instead of per five-tuple flows.
// Keeping the rule pure (no clocks, no engine state) makes the tests
// deterministic: drive synthetic epochs through NextThreshold and pin
// the exact trajectory.

// Feedback is one epoch's observations, the inputs to the threshold
// rule.
type Feedback struct {
	// Promoted counts keys installed onto the NIC path this epoch.
	Promoted int64
	// Denied counts promotions refused because the per-epoch install
	// budget was exhausted (the flow table's insertion-rate limit).
	Denied int64
	// Overflows counts vFIFO overflow events — each one demoted a key
	// back to the host path, the engine's analogue of a dropped
	// offloaded packet.
	Overflows int64
	// NICFrames and HostFrames split the epoch's routed protocol
	// messages by which path handled them.
	NICFrames  int64
	HostFrames int64
	// Residency and Work sum the epoch's cost-sampled vFIFO entries'
	// ns from admission to handler start, and handler start to end.
	Residency, Work int64
}

// overcommitRatio is the residency-to-work ratio above which an epoch
// counts as an over-commit. For an M/M/1 queue W_q/S = ρ/(1−ρ), so
// W_q > 4·S means the pool is over 80% busy; a soft NIC whose cores
// share the host's CPUs also reads its wait for a CPU here.
const overcommitRatio = 4

// overcommitted: sampled entries waited over overcommitRatio × their work.
func (fb Feedback) overcommitted() bool { return fb.Residency > overcommitRatio*fb.Work }

// PolicyConfig bounds the threshold the rule may choose.
type PolicyConfig struct {
	Min, Max uint32
}

// NextThreshold returns the promotion threshold for the next epoch.
//
// The rule, in priority order:
//
//  1. A vFIFO overflow or an over-commit (overcommitted) means the
//     NIC pool cannot keep up: keys that qualified were too many or
//     too hot to drain, or its cores wait for a CPU. Double the
//     threshold so only genuinely hotter keys qualify next epoch.
//  2. Budget-denied promotions with no overflow mean demand outpaces
//     the install rate but the pool itself kept up: raise the
//     threshold by half to shed the marginal candidates.
//  3. No promotions while the host path still carries most traffic
//     means the threshold overshot the workload's heat: halve it so
//     warm keys can qualify again.
//  4. Otherwise the boundary is in equilibrium: keep it.
//
// The result is always clamped to [cfg.Min, cfg.Max].
func NextThreshold(cur uint32, fb Feedback, cfg PolicyConfig) uint32 {
	next := cur
	switch {
	case fb.Overflows > 0 || fb.overcommitted():
		next = saturatingDouble(cur)
	case fb.Denied > 0:
		next = saturatingAdd(cur, cur/2)
	case fb.Promoted == 0 && fb.HostFrames > fb.NICFrames:
		next = cur / 2
	}
	if next < cfg.Min {
		next = cfg.Min
	}
	if cfg.Max > 0 && next > cfg.Max {
		next = cfg.Max
	}
	return next
}

func saturatingDouble(v uint32) uint32 {
	if v > 1<<30 {
		return 1 << 31
	}
	return v * 2
}

func saturatingAdd(a, b uint32) uint32 {
	if a > ^uint32(0)-b {
		return ^uint32(0)
	}
	return a + b
}
