// Command minos-trace replays a per-transaction trace recorded by
// minos-live -trace into the paper's latency decomposition: a
// per-phase breakdown table per DDP model (Fig 2's message flow as
// rows) and the Fig 4-style communication/computation split that the
// paper attributes 51-73% of write latency to.
//
// Usage:
//
//	minos-live -trace TRACE.json -duration 2s
//	minos-trace TRACE.json
//	minos-trace -role follower TRACE.json
//
// Communication phases are the INV fan-out, the acknowledgment wait,
// and the VAL fan-out; everything else (issue, persist enqueue, group
// commit, completion) is computation, matching the paper's accounting
// where comm = write span − follower handling.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"github.com/minos-ddp/minos/internal/obs"
	"github.com/minos-ddp/minos/internal/stats"
)

func main() {
	role := flag.String("role", "coordinator", "spans to break down: coordinator | follower")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: minos-trace [-role coordinator|follower] TRACE.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	var want obs.Role
	switch *role {
	case "coordinator":
		want = obs.RoleCoordinator
	case "follower":
		want = obs.RoleFollower
	default:
		fmt.Fprintf(os.Stderr, "minos-trace: unknown -role %q\n", *role)
		os.Exit(2)
	}
	doc, err := readTrace(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "minos-trace:", err)
		os.Exit(1)
	}
	for _, run := range doc.Runs {
		b := breakdown(run.Spans, want)
		fmt.Println(b.table(run.Model, *role))
		if want == obs.RoleCoordinator {
			fmt.Println(b.commCompLine())
		}
		fmt.Println()
	}
}

// traceDoc mirrors minos-live's -trace output: one span list per model.
type traceDoc struct {
	Runs []traceRun `json:"runs"`
}

type traceRun struct {
	Model string     `json:"model"`
	Spans []obs.Span `json:"spans"`
}

func readTrace(path string) (*traceDoc, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc traceDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s is not a minos-live trace: %w", path, err)
	}
	if len(doc.Runs) == 0 {
		return nil, fmt.Errorf("%s holds no runs", path)
	}
	return &doc, nil
}

// phaseAgg accumulates one phase's spans.
type phaseAgg struct {
	count int64
	sum   int64 // ns
}

// runBreakdown is one model's aggregated trace.
type runBreakdown struct {
	phases [obs.NumPhases]phaseAgg
	total  int64 // ns across all phases
	txns   int   // distinct (node, txn) transactions; 0 for followers
}

// breakdown folds the spans of one role into per-phase totals.
// Transactions are counted as distinct (node, txn) pairs because each
// node's tracer issues its own transaction sequence.
func breakdown(spans []obs.Span, role obs.Role) *runBreakdown {
	b := &runBreakdown{}
	seen := map[[2]uint64]struct{}{}
	for _, s := range spans {
		if s.Role != role || s.Phase >= obs.NumPhases {
			continue
		}
		b.phases[s.Phase].count++
		b.phases[s.Phase].sum += s.Dur()
		b.total += s.Dur()
		if role == obs.RoleCoordinator {
			seen[[2]uint64{uint64(s.Node), s.Txn}] = struct{}{}
		}
	}
	b.txns = len(seen)
	return b
}

// commNs returns the time spent in communication phases: the INV
// fan-out, the acknowledgment waits, and the VAL fan-out.
func (b *runBreakdown) commNs() int64 {
	return b.phases[obs.PhaseInvFanout].sum +
		b.phases[obs.PhaseAckWait].sum +
		b.phases[obs.PhaseVal].sum
}

// table renders the Fig 4-style per-phase rows for one model.
func (b *runBreakdown) table(model, role string) *stats.Table {
	tab := &stats.Table{
		Title:   fmt.Sprintf("%s — %s phase breakdown (%d transactions)", model, role, b.txns),
		Headers: []string{"phase", "spans", "total", "mean", "per-txn", "share%"},
	}
	for _, p := range obs.Phases() {
		a := b.phases[p]
		if a.count == 0 {
			continue
		}
		mean := float64(a.sum) / float64(a.count)
		perTxn := "-"
		if b.txns > 0 {
			perTxn = stats.Ns(float64(a.sum) / float64(b.txns))
		}
		share := 0.0
		if b.total > 0 {
			share = float64(a.sum) / float64(b.total) * 100
		}
		tab.AddRow(p.String(), fmt.Sprint(a.count), stats.Ns(float64(a.sum)),
			stats.Ns(mean), perTxn, stats.F(share))
	}
	return tab
}

// commCompLine renders the one-line Fig 4 summary: communication vs
// computation share of the traced write path.
func (b *runBreakdown) commCompLine() string {
	comm := b.commNs()
	comp := b.total - comm
	frac := 0.0
	if b.total > 0 {
		frac = float64(comm) / float64(b.total) * 100
	}
	perTxn := ""
	if b.txns > 0 {
		perTxn = fmt.Sprintf(", %s/txn", stats.Ns(float64(b.total)/float64(b.txns)))
	}
	return fmt.Sprintf("comm %s | comp %s | comm %.1f%%%s",
		stats.Ns(float64(comm)), stats.Ns(float64(comp)), frac, perTxn)
}
