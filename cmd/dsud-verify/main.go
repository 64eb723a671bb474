// Command dsud-verify cross-checks every implementation of the skyline
// probability semantics against each other on a generated (or loaded)
// workload: the distributed engine (all algorithms), the centralized
// brute-force oracle, the PR-tree index, the vertical VDSUD algorithm,
// and the Monte Carlo world sampler. It is the operational counterpart of
// the test suite — run it after any change, or on a dataset that behaves
// suspiciously in production.
//
// Usage:
//
//	dsud-verify -n 2000 -d 3 -m 6 -q 0.3 [-values anticorrelated] [-samples 20000]
//	dsud-verify -data /tmp/parts/site-0.dsud -q 0.3
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/montecarlo"
	"repro/internal/prtree"
	"repro/internal/uncertain"
	"repro/internal/vertical"
)

func main() {
	var (
		data    = flag.String("data", "", "dataset file (optional; otherwise generate)")
		n       = flag.Int("n", 2000, "cardinality when generating")
		d       = flag.Int("d", 3, "dimensionality when generating")
		m       = flag.Int("m", 6, "site count for the distributed checks")
		q       = flag.Float64("q", 0.3, "probability threshold")
		values  = flag.String("values", "independent", "value distribution: independent|anticorrelated|correlated|nyse")
		samples = flag.Int("samples", 20_000, "Monte Carlo world samples (0 disables)")
		seed    = flag.Int64("seed", 1, "generation seed")
	)
	flag.Parse()

	db, dims := loadOrGenerate(*data, *n, *d, *values, *seed)
	fmt.Printf("verifying %d tuples (%d dims) at q=%v over %d sites\n\n", len(db), dims, *q, *m)

	failures := 0
	report := func(name string, ok bool, detail string) {
		status := "ok  "
		if !ok {
			status = "FAIL"
			failures++
		}
		fmt.Printf("  [%s] %-34s %s\n", status, name, detail)
	}

	// Reference answer: the O(N²) brute-force oracle.
	want := db.Skyline(*q, nil)
	fmt.Printf("reference (brute force): %d skyline tuples\n", len(want))

	// PR-tree index.
	tree := prtree.Bulk(db, dims, 0)
	treeAnswer := tree.LocalSkyline(*q, nil)
	report("PR-tree BBS search", uncertain.MembersEqual(treeAnswer, want, 1e-9),
		fmt.Sprintf("%d tuples", len(treeAnswer)))

	// Distributed algorithms over an in-process cluster.
	parts, err := gen.Partition(db, *m, *seed+1)
	if err != nil {
		fatalf("%v", err)
	}
	for _, algo := range []core.Algorithm{core.Baseline, core.DSUD, core.EDSUD} {
		cluster, err := core.NewLocalCluster(parts, dims, 0)
		if err != nil {
			fatalf("%v", err)
		}
		rep, err := core.Run(context.Background(), cluster, core.Options{Threshold: *q, Algorithm: algo})
		cluster.Close()
		if err != nil {
			fatalf("%v: %v", algo, err)
		}
		report(fmt.Sprintf("distributed %v", algo),
			uncertain.MembersEqual(rep.Skyline, want, 1e-9),
			fmt.Sprintf("%d tuples, %d transmitted", len(rep.Skyline), rep.Bandwidth.Tuples()))
	}

	// Vertical partitioning.
	sites, err := vertical.Split(db)
	if err != nil {
		fatalf("%v", err)
	}
	vAnswer, vStats, err := vertical.Query(sites, *q)
	if err != nil {
		fatalf("vertical: %v", err)
	}
	report("vertical VDSUD", uncertain.MembersEqual(vAnswer, want, 1e-9),
		fmt.Sprintf("%d tuples, %d entries", len(vAnswer), vStats.Entries()))

	// Monte Carlo statistical cross-check.
	if *samples > 0 {
		ests, err := montecarlo.SkyProbs(db, nil, *samples, *seed+2)
		if err != nil {
			fatalf("montecarlo: %v", err)
		}
		worst, disagreements := 0.0, 0
		margin := 5 * math.Sqrt(0.25/float64(*samples))
		for _, e := range ests {
			exact := db.SkyProb(e.Tuple, nil)
			if dev := math.Abs(e.Prob - exact); dev > worst {
				worst = dev
			}
			if math.Abs(exact-*q) > margin && (e.Prob >= *q) != (exact >= *q) {
				disagreements++
			}
		}
		tol := margin + 0.005
		report("Monte Carlo sampler",
			worst <= tol && disagreements == 0,
			fmt.Sprintf("max deviation %.4f (tol %.4f), %d membership disagreements", worst, tol, disagreements))
	}

	if failures > 0 {
		fmt.Printf("\n%d check(s) FAILED\n", failures)
		os.Exit(1)
	}
	fmt.Println("\nall checks passed")
}

func loadOrGenerate(path string, n, d int, values string, seed int64) (uncertain.DB, int) {
	if path != "" {
		db, dims, err := dataset.Load(path)
		if err != nil {
			fatalf("%v", err)
		}
		return db, dims
	}
	cfg := gen.Config{N: n, Dims: d, Probs: gen.UniformProb, Seed: seed}
	switch values {
	case "independent":
		cfg.Values = gen.Independent
	case "anticorrelated":
		cfg.Values = gen.Anticorrelated
	case "correlated":
		cfg.Values = gen.Correlated
	case "nyse":
		cfg.Values = gen.NYSE
		cfg.Dims = 0
	default:
		fatalf("unknown value distribution %q", values)
	}
	db, err := gen.Generate(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	return db, db.Dims()
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "dsud-verify: "+format+"\n", args...)
	os.Exit(1)
}
