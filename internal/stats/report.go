package stats

import (
	"fmt"

	"github.com/minos-ddp/minos/internal/obs"
)

// Report is the one percentile-report shape: loadgen.Result's latency
// views and the rows of BENCH_scale.json. It is built from merged obs
// histogram buckets, because retaining per-op samples at millions of
// ops is off the table. All values are nanoseconds.
type Report struct {
	Count  int64   `json:"count"`
	MeanNs float64 `json:"mean_ns"`
	P50Ns  float64 `json:"p50_ns"`
	P90Ns  float64 `json:"p90_ns"`
	P99Ns  float64 `json:"p99_ns"`
	P999Ns float64 `json:"p999_ns"`
	P9999  float64 `json:"p9999_ns"`
}

// ReportFromHistogram summarizes an obs histogram snapshot; quantiles
// interpolate within the log-linear buckets (see
// obs.HistogramPoint.Quantile for the error bound).
func ReportFromHistogram(h obs.HistogramPoint) Report {
	return Report{
		Count:  h.Count,
		MeanNs: h.Mean(),
		P50Ns:  h.Quantile(0.50),
		P90Ns:  h.Quantile(0.90),
		P99Ns:  h.Quantile(0.99),
		P999Ns: h.Quantile(0.999),
		P9999:  h.Quantile(0.9999),
	}
}

func (r Report) String() string {
	return fmt.Sprintf("n=%d mean %s p50 %s p99 %s p999 %s p9999 %s",
		r.Count, Ns(r.MeanNs), Ns(r.P50Ns), Ns(r.P99Ns), Ns(r.P999Ns), Ns(r.P9999))
}
