// Updates: keeping the skyline answer alive under churn (§5.4).
//
// A sensor fleet reports uncertain 3-d readings to regional gateways;
// readings arrive and expire continuously. The example runs the initial
// distributed query once, then maintains the answer incrementally through
// a stream of inserts and deletes, comparing the cost with the naive
// recompute-from-scratch strategy.
//
// Run with:
//
//	go run ./examples/updates
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/dsq"
)

func main() {
	const (
		readings = 40_000
		gateways = 6
		churn    = 200 // update operations in the demo stream
	)

	db, err := dsq.GenerateWorkload(dsq.WorkloadConfig{
		N: readings, Dims: 3,
		Values: dsq.Independent, Probs: dsq.UniformProb, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	parts, err := dsq.PartitionWorkload(db, gateways, 8)
	if err != nil {
		log.Fatal(err)
	}
	cluster, err := dsq.Connect(dsq.ClusterConfig{Partitions: parts, Dims: 3})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	ctx := context.Background()

	start := time.Now()
	srv, err := cluster.Serve(ctx, dsq.ServeConfig{Floor: 0.3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial query over %d readings: %d skyline tuples in %v\n\n",
		readings, len(srv.Skyline()), time.Since(start).Round(1e6))

	// Mirror the partitions so we can pick live victims to delete.
	live := make([]dsq.DB, gateways)
	for i := range parts {
		live[i] = append(dsq.DB(nil), parts[i]...)
	}
	r := rand.New(rand.NewSource(9))
	nextID := dsq.TupleID(readings + 1)

	start = time.Now()
	inserts, deletes := 0, 0
	for op := 0; op < churn; op++ {
		gw := r.Intn(gateways)
		if r.Float64() < 0.5 || len(live[gw]) == 0 {
			tu := dsq.Tuple{
				ID:    nextID,
				Point: dsq.Point{r.Float64(), r.Float64(), r.Float64()},
				Prob:  0.05 + 0.95*r.Float64(),
			}
			nextID++
			if err := srv.Insert(ctx, gw, tu); err != nil {
				log.Fatal(err)
			}
			live[gw] = append(live[gw], tu)
			inserts++
		} else {
			k := r.Intn(len(live[gw]))
			victim := live[gw][k]
			live[gw] = append(live[gw][:k], live[gw][k+1:]...)
			if err := srv.Delete(ctx, gw, victim); err != nil {
				log.Fatal(err)
			}
			deletes++
		}
	}
	incElapsed := time.Since(start)
	fmt.Printf("incremental maintenance: %d inserts + %d deletes in %v (%.2f ms/update)\n",
		inserts, deletes, incElapsed.Round(1e6),
		float64(incElapsed.Microseconds())/float64(churn)/1000)
	fmt.Printf("answer is now %d skyline tuples\n\n", len(srv.Skyline()))

	// The naive alternative: a full re-query per update. One is enough to
	// make the point.
	start = time.Now()
	if err := srv.Refresh(ctx); err != nil {
		log.Fatal(err)
	}
	refresh := time.Since(start)
	fmt.Printf("one naive recompute costs %v — %d of them would have taken %v\n",
		refresh.Round(1e6), churn, (refresh * churn).Round(1e8))
	fmt.Printf("(and the refresh confirms the incremental answer: %d tuples)\n", len(srv.Skyline()))
}
