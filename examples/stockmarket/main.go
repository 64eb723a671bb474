// Stockmarket: distributed "top deal" discovery over uncertain trades,
// the paper's introduction scenario on the NYSE-like synthetic workload.
//
// Each of several stock-exchange centres records trades as (average price
// per share, traded volume); recording errors give every trade an
// existential probability. A deal dominates another when it is cheaper
// AND larger. The query streams the globally best deals progressively —
// the property the paper's Fig. 13 measures — and this example prints the
// progressiveness trace alongside the answer.
//
// Run with:
//
//	go run ./examples/stockmarket
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/dsq"
)

func main() {
	const (
		trades    = 120_000
		exchanges = 8
		threshold = 0.3
	)

	// The NYSE generator emits (price, volumeComplement); both minimised,
	// so low price and high volume win — the "good deal" order.
	db, err := dsq.GenerateWorkload(dsq.WorkloadConfig{
		N:      trades,
		Values: dsq.NYSE,
		Probs:  dsq.GaussianProb,
		Mu:     0.6, Sigma: 0.2,
		Seed: 42,
	})
	if err != nil {
		log.Fatal(err)
	}
	parts, err := dsq.PartitionWorkload(db, exchanges, 43)
	if err != nil {
		log.Fatal(err)
	}
	cluster, err := dsq.Connect(dsq.ClusterConfig{Partitions: parts, Dims: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	fmt.Printf("%d trades across %d exchanges; streaming deals with P(top) >= %.1f\n\n",
		trades, exchanges, threshold)

	first := true
	report, err := cluster.Query(context.Background(), dsq.Options{
		Threshold: threshold,
		Algorithm: dsq.EDSUD,
		OnResult: func(res dsq.Result) {
			if first {
				fmt.Println("deals as they are confirmed:")
				first = false
			}
			price := res.Tuple.Point[0]
			volume := 1<<20 - res.Tuple.Point[1] // invert the complement
			fmt.Printf("  deal #%-2d exchange %d: %8.0f shares at %6.2f  (P = %.3f)\n",
				res.Index, res.Site, volume, price, res.GlobalProb)
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Every report carries the query's delivery-curve digest — the curve
	// its flight record holds and dsud-query -explain renders. Its
	// checkpoints are the paper's Fig. 13 progressiveness measure: how
	// much network cost each confirmed deal required.
	curve := report.Curve
	fmt.Printf("\ndelivery curve (cumulative network cost per confirmed deal):\n")
	for _, p := range curve.Checkpoints() {
		fmt.Printf("  after %2d deal(s): %5d tuples moved, %8v elapsed\n",
			p.K, p.Tuples, time.Duration(p.NS).Round(1e4))
	}
	fmt.Printf("\nprogress: auc(bandwidth) %.3f, auc(time) %.3f, first deal after %v\n",
		curve.AUCBandwidth, curve.AUCTime, time.Duration(curve.TTFirstNS).Round(1e4))
	fmt.Printf("total: %d deals, %d tuples transmitted (of %d stored), %v\n",
		len(report.Skyline), report.Bandwidth.Tuples(), trades, report.Elapsed.Round(1e6))
}
