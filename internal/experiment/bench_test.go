package experiment

import (
	"context"
	"testing"
)

// BenchmarkGridMatrix runs the short grid matrix CI archives into
// BENCH_4.json: both grid variants over two seeds, streamed through
// the dedup window on the engine's worker pool. The reported metrics
// are the aggregate counts the grid scenarios exist to produce —
// comparable across PRs like the Table 1 counts in BENCH_3.
func BenchmarkGridMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ex, err := Runner{}.Execute(context.Background(), RunSpecOpts{Matrix: Matrix{
			Scenarios: []string{"grid", "grid9"},
			Seeds:     []int64{1, 2},
			Scales:    []float64{0.5},
		}})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range ex.Results {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
		for _, a := range ex.Aggregates {
			prefix := a.Scenario + "_"
			b.ReportMetric(a.Field("frames").Mean, prefix+"frames")
			b.ReportMetric(a.Field("modal_util_pct").Mean, prefix+"modal_util_pct")
			b.ReportMetric(a.Field("throughput_mbps").Mean, prefix+"throughput_mbps")
			b.ReportMetric(a.Field("unrecorded_pct").Mean, prefix+"unrecorded_pct")
		}
	}
}

// BenchmarkGridReduce measures the reduce-as-you-go mode on the same
// matrix (the path very large matrices take). It reads the pool's
// peak pending count through the package-internal execute.
func BenchmarkGridReduce(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ex, peak, err := execute(context.Background(), RunSpecOpts{Mode: ModeReduce, Matrix: Matrix{
			Scenarios: []string{"grid"},
			Seeds:     []int64{1, 2, 3},
			Scales:    []float64{0.5},
		}})
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range ex.Errs {
			if e != nil {
				b.Fatal(e)
			}
		}
		b.ReportMetric(ex.Aggregates[0].Field("frames").Mean, "frames")
		b.ReportMetric(float64(peak), "peak_pending")
	}
}
