package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"github.com/minos-ddp/minos/internal/obs"
)

func TestMeanBasics(t *testing.T) {
	var m Mean
	if m.Value() != 0 || m.N() != 0 {
		t.Fatal("zero-value mean should be empty")
	}
	for _, x := range []float64{2, 4, 6} {
		m.Add(x)
	}
	if m.Value() != 4 || m.N() != 3 {
		t.Fatalf("mean=%v n=%d, want 4,3", m.Value(), m.N())
	}
	if got := m.Variance(); math.Abs(got-4) > 1e-9 {
		t.Fatalf("variance %v, want 4", got)
	}
	if got := m.Stddev(); math.Abs(got-2) > 1e-9 {
		t.Fatalf("stddev %v, want 2", got)
	}
}

// Property: Welford mean equals the naive sum/n within float tolerance.
func TestPropertyMeanMatchesNaive(t *testing.T) {
	f := func(xs []float64) bool {
		var m Mean
		sum := 0.0
		n := 0
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				continue
			}
			m.Add(x)
			sum += x
			n++
		}
		if n == 0 {
			return m.Value() == 0
		}
		naive := sum / float64(n)
		return math.Abs(m.Value()-naive) <= 1e-6*(1+math.Abs(naive))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSamplerPercentiles(t *testing.T) {
	var s Sampler
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Percentile(50); got != 50 {
		t.Fatalf("p50 = %v, want 50", got)
	}
	if got := s.Percentile(99); got != 99 {
		t.Fatalf("p99 = %v, want 99", got)
	}
	if s.Min() != 1 || s.Max() != 100 {
		t.Fatalf("min/max = %v/%v, want 1/100", s.Min(), s.Max())
	}
	if s.Mean() != 50.5 {
		t.Fatalf("mean = %v, want 50.5", s.Mean())
	}
	// Adding after a percentile query must still work (re-sort).
	s.Add(1000)
	if s.Max() != 1000 {
		t.Fatal("sampler did not re-sort after Add")
	}
}

func TestSamplerEmpty(t *testing.T) {
	var s Sampler
	if s.Percentile(50) != 0 || s.Mean() != 0 {
		t.Fatal("empty sampler should return zeros")
	}
}

func TestBreakdown(t *testing.T) {
	var b Breakdown
	b.Add(60, 40)
	b.Add(80, 20)
	if got := b.Total(); got != 100 {
		t.Fatalf("total %v, want 100", got)
	}
	if got := b.CommFraction(); math.Abs(got-0.7) > 1e-9 {
		t.Fatalf("comm fraction %v, want 0.7", got)
	}
}

func TestNormalize(t *testing.T) {
	out := Normalize([]float64{2, 4, 6}, 2)
	if out[0] != 1 || out[1] != 2 || out[2] != 3 {
		t.Fatalf("normalize = %v", out)
	}
	if z := Normalize([]float64{1, 2}, 0); z[0] != 0 || z[1] != 0 {
		t.Fatal("zero base should yield zeros")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Title:   "Fig X",
		Headers: []string{"model", "latency"},
	}
	tab.AddRow("Lin-Synch", "1.000")
	tab.AddRow("Lin-Event", "0.750")
	out := tab.String()
	if !strings.Contains(out, "Fig X") || !strings.Contains(out, "Lin-Synch") {
		t.Fatalf("table missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("table has %d lines, want 5:\n%s", len(lines), out)
	}
}

func TestNsFormatting(t *testing.T) {
	cases := map[float64]string{
		500:     "500ns",
		1500:    "1.50µs",
		2500000: "2.50ms",
		3e9:     "3.00s",
	}
	for v, want := range cases {
		if got := Ns(v); got != want {
			t.Errorf("Ns(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestReportFromSamplerAndHistogramAgree(t *testing.T) {
	var s Sampler
	var h obs.Histogram
	for v := int64(1); v <= 20000; v++ {
		s.Add(float64(v))
		h.Observe(v)
	}
	rh := ReportFromHistogram(h.Point("lat"))
	if s.N() != 20000 || rh.Count != 20000 {
		t.Fatalf("counts = %d/%d, want 20000", s.N(), rh.Count)
	}
	check := func(name string, exact, est float64) {
		if est < exact*0.85 || est > exact*1.15 {
			t.Errorf("%s: histogram estimate %.0f vs sampler %.0f (>15%% apart)", name, est, exact)
		}
	}
	check("p50", s.Percentile(50), rh.P50Ns)
	check("p90", s.Percentile(90), rh.P90Ns)
	check("p99", s.Percentile(99), rh.P99Ns)
	check("p999", s.Percentile(99.9), rh.P999Ns)
	check("p9999", s.Percentile(99.99), rh.P9999)
	if math.Abs(s.Mean()-rh.MeanNs) > 1 {
		t.Errorf("means diverge: %v vs %v", s.Mean(), rh.MeanNs)
	}
}
