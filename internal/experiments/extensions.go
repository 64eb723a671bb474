package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/uncertain"
	"repro/internal/vertical"
)

// Ablation decomposes e-DSUD's bandwidth advantage: full e-DSUD, each
// mechanism disabled individually, both disabled, and plain DSUD with its
// own controls. X encodes the configuration index; the legend maps them.
func Ablation(ctx context.Context, scale Scale) ([]Figure, error) {
	cases := []struct {
		name string
		opts core.Options
	}{
		{"e-DSUD", core.Options{Algorithm: core.EDSUD}},
		{"e-DSUD -expunge", core.Options{Algorithm: core.EDSUD, DisableExpunge: true}},
		{"e-DSUD -site-pruning", core.Options{Algorithm: core.EDSUD, DisableSitePruning: true}},
		{"e-DSUD -both", core.Options{Algorithm: core.EDSUD, DisableExpunge: true, DisableSitePruning: true}},
		{"DSUD", core.Options{Algorithm: core.DSUD}},
		{"DSUD round-robin", core.Options{Algorithm: core.DSUD, Policy: core.PolicyRoundRobin}},
	}
	var out []Figure
	for _, vd := range []gen.ValueDist{gen.Independent, gen.Anticorrelated} {
		fig := Figure{
			ID:     "ablation-" + vd.String(),
			Title:  fmt.Sprintf("Ablation: bandwidth per configuration (%s)", vd),
			XLabel: "config#", YLabel: "tuples transmitted",
		}
		for idx, tc := range cases {
			cfg := config{
				n: scale.N, d: DefaultDims, m: scale.sites(), q: DefaultThreshold,
				values: vd, probs: gen.UniformProb,
			}
			optsCfg := cfg
			series := Series{Name: tc.name}
			// averageBandwidth runs the default algorithm; inline the
			// loop here so the ablation options apply.
			reps := scale.queries()
			var bw float64
			for k := 0; k < reps; k++ {
				c := optsCfg
				c.seed = scale.Seed + int64(k)*1000
				opts := tc.opts
				opts.Threshold = c.q
				report, err := runOnceOpts(ctx, c, opts)
				if err != nil {
					return nil, err
				}
				bw += float64(report.Bandwidth.Tuples())
			}
			series.Points = append(series.Points, Point{float64(idx), bw / float64(reps)})
			fig.Series = append(fig.Series, series)
		}
		out = append(out, fig)
	}
	return out, nil
}

// runOnceOpts is runOnce with fully caller-controlled options.
func runOnceOpts(ctx context.Context, cfg config, opts core.Options) (*core.Report, error) {
	dims := cfg.d
	if cfg.values == gen.NYSE {
		dims = 2
	}
	db, err := gen.Generate(gen.Config{
		N: cfg.n, Dims: dims, Values: cfg.values,
		Probs: cfg.probs, Mu: cfg.mu, Sigma: cfg.sigma, Seed: cfg.seed,
	})
	if err != nil {
		return nil, err
	}
	parts, err := gen.Partition(db, cfg.m, cfg.seed+1)
	if err != nil {
		return nil, err
	}
	cluster, err := core.Open(core.ClusterConfig{Partitions: parts, Dims: dims})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	return core.Run(ctx, cluster, opts)
}

// Vertical compares VDSUD's entry cost against the column-download
// baseline across value distributions (the §8 future-work extension).
func Vertical(ctx context.Context, scale Scale) ([]Figure, error) {
	fig := Figure{
		ID: "vertical", Title: "Vertical partitioning (VDSUD): entries vs column download",
		XLabel: "distribution#", YLabel: "list entries",
		Series: []Series{{Name: "VDSUD"}, {Name: "Download"}},
	}
	dists := []gen.ValueDist{gen.Correlated, gen.Independent, gen.Anticorrelated}
	for idx, vd := range dists {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		db, err := gen.Generate(gen.Config{
			N: scale.N, Dims: DefaultDims, Values: vd, Probs: gen.UniformProb, Seed: scale.Seed,
		})
		if err != nil {
			return nil, err
		}
		sites, err := vertical.Split(db)
		if err != nil {
			return nil, err
		}
		_, stats, err := vertical.Query(sites, DefaultThreshold)
		if err != nil {
			return nil, err
		}
		fig.Series[0].Points = append(fig.Series[0].Points, Point{float64(idx), float64(stats.Entries())})
		fig.Series[1].Points = append(fig.Series[1].Points, Point{float64(idx), float64(vertical.BaselineEntries(sites))})
	}
	return []Figure{fig}, nil
}

// Partitioning compares the uniform random horizontal split (the paper's
// setup) against angle-based partitioning (reference [21]): same data,
// same algorithm, different site assignment.
func Partitioning(ctx context.Context, scale Scale) ([]Figure, error) {
	var out []Figure
	for _, vd := range []gen.ValueDist{gen.Independent, gen.Anticorrelated} {
		fig := Figure{
			ID:     "partitioning-" + vd.String(),
			Title:  fmt.Sprintf("Partitioning strategy: e-DSUD bandwidth (%s)", vd),
			XLabel: "m", YLabel: "tuples transmitted",
			Series: []Series{{Name: "Random"}, {Name: "Angular"}},
		}
		db, err := gen.Generate(gen.Config{
			N: scale.N, Dims: DefaultDims, Values: vd, Probs: gen.UniformProb, Seed: scale.Seed,
		})
		if err != nil {
			return nil, err
		}
		for _, m := range []int{10, 20, 40, 60} {
			random, err := gen.Partition(db, m, scale.Seed+1)
			if err != nil {
				return nil, err
			}
			angular, err := gen.PartitionAngular(db, m)
			if err != nil {
				return nil, err
			}
			for si, parts := range [][]uncertain.DB{random, angular} {
				cluster, err := core.Open(core.ClusterConfig{Partitions: parts, Dims: DefaultDims})
				if err != nil {
					return nil, err
				}
				rep, err := core.Run(ctx, cluster, core.Options{Threshold: DefaultThreshold, Algorithm: core.EDSUD})
				cluster.Close()
				if err != nil {
					return nil, err
				}
				fig.Series[si].Points = append(fig.Series[si].Points,
					Point{float64(m), float64(rep.Bandwidth.Tuples())})
			}
		}
		out = append(out, fig)
	}
	return out, nil
}

// Latency studies progressiveness in the time domain: with a simulated
// per-message round trip, when does each algorithm deliver its first
// answer, half the answers, and the full set? (The paper's §3.2 motivates
// progressive delivery by exactly this network delay.)
func Latency(ctx context.Context, scale Scale) ([]Figure, error) {
	const rtt = 2 * time.Millisecond
	fig := Figure{
		ID:     "latency",
		Title:  fmt.Sprintf("Time to results with %v per-message latency (anticorrelated)", rtt),
		XLabel: "milestone (1=first, 2=half, 3=all)", YLabel: "seconds",
		Series: []Series{{Name: "DSUD"}, {Name: "e-DSUD"}},
	}
	db, err := gen.Generate(gen.Config{
		N: scale.N, Dims: DefaultDims, Values: gen.Anticorrelated,
		Probs: gen.UniformProb, Seed: scale.Seed,
	})
	if err != nil {
		return nil, err
	}
	parts, err := gen.Partition(db, scale.sites(), scale.Seed+1)
	if err != nil {
		return nil, err
	}
	for si, algo := range []core.Algorithm{core.DSUD, core.EDSUD} {
		cluster, err := core.Open(core.ClusterConfig{Partitions: parts, Dims: DefaultDims, Latency: rtt})
		if err != nil {
			return nil, err
		}
		rep, err := core.Run(ctx, cluster, core.Options{Threshold: DefaultThreshold, Algorithm: algo})
		cluster.Close()
		if err != nil {
			return nil, err
		}
		if len(rep.Progress) == 0 {
			continue
		}
		first := time.Duration(rep.Progress[0].NS).Seconds()
		half := time.Duration(rep.Progress[len(rep.Progress)/2].NS).Seconds()
		all := rep.Elapsed.Seconds()
		fig.Series[si].Points = append(fig.Series[si].Points,
			Point{1, first}, Point{2, half}, Point{3, all})
	}
	return []Figure{fig}, nil
}
