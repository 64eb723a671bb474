package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/uncertain"
)

// The paper's figures are regenerated by dsud-bench (make figures); the
// benchmarks here measure the query paths no figure plots, at 8000 tuples
// over 10 sites, and report the paper's own metric, tuples transmitted.

// benchQuery runs the query b.N times over one cluster and reports its
// bandwidth and answer size.
func benchQuery(b *testing.B, parts []uncertain.DB, dims int, opts Options) {
	b.Helper()
	cluster, err := Open(ClusterConfig{Partitions: parts, Dims: dims})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	var rep *Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep, err = Run(context.Background(), cluster, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(rep.Bandwidth.Tuples()), "tuples/query")
	b.ReportMetric(float64(len(rep.Skyline)), "skyline")
}

// Baseline reference: what shipping everything costs.
func BenchmarkBaseline(b *testing.B) {
	for _, values := range []gen.ValueDist{gen.Independent, gen.Anticorrelated} {
		parts, _ := makeWorkload(b, 8000, 3, 10, values, 77)
		b.Run(values.String(), func(b *testing.B) {
			benchQuery(b, parts, 3, Options{Threshold: 0.3, Algorithm: Baseline})
		})
	}
}

// Early termination: the cost of the first k confirmed answers.
func BenchmarkMaxResults(b *testing.B) {
	parts, _ := makeWorkload(b, 8000, 3, 10, gen.Anticorrelated, 77)
	for _, k := range []int{1, 5, 25} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			benchQuery(b, parts, 3, Options{Threshold: 0.3, Algorithm: EDSUD, MaxResults: k})
		})
	}
}
