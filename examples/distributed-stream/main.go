// Distributed stream: a continuously maintained global skyline over
// sliding windows at the sites — composing the §5.4 incremental
// maintenance of a served answer with window semantics.
//
// Each of four regional gateways keeps only its most recent readings
// (a per-site sliding window). Every arrival is an Insert, every expiry a
// Delete, and the coordinator's answer stays exact throughout — the
// distributed analogue of the centralized stream operator in
// examples/sensors.
//
// Run with:
//
//	go run ./examples/distributed-stream
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
		gateways   = 4
		windowSize = 1_500 // per gateway
		arrivals   = 12_000
	)

	// Pre-fill each gateway's window.
	db, err := dsq.GenerateWorkload(dsq.WorkloadConfig{
		N: gateways * windowSize, Dims: 2,
		Values: dsq.Independent, Probs: dsq.UniformProb, Seed: 31,
	})
	if err != nil {
		log.Fatal(err)
	}
	parts, err := dsq.PartitionWorkload(db, gateways, 32)
	if err != nil {
		log.Fatal(err)
	}
	cluster, err := dsq.Connect(dsq.ClusterConfig{Partitions: parts, Dims: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	ctx := context.Background()

	// Replicate SKY(H) to the gateways so hopeless arrivals never trigger
	// a global round (§5.4).
	srv, err := cluster.Serve(ctx, dsq.ServeConfig{Floor: 0.3, Replicate: true})
	if err != nil {
		log.Fatal(err)
	}

	// Per-gateway FIFO windows, seeded with the initial partitions.
	windows := make([][]dsq.Tuple, gateways)
	for i, part := range parts {
		windows[i] = append([]dsq.Tuple(nil), part...)
	}

	r := rand.New(rand.NewSource(33))
	nextID := dsq.TupleID(len(db) + 1)
	start := time.Now()
	for arrival := 0; arrival < arrivals; arrival++ {
		gw := arrival % gateways
		reading := dsq.Tuple{
			ID:    nextID,
			Point: dsq.Point{r.Float64(), r.Float64()},
			Prob:  0.05 + 0.95*r.Float64(),
		}
		nextID++
		// Slide: evict the oldest reading at this gateway first.
		oldest := windows[gw][0]
		windows[gw] = windows[gw][1:]
		if err := srv.Delete(ctx, gw, oldest); err != nil {
			log.Fatal(err)
		}
		if err := srv.Insert(ctx, gw, reading); err != nil {
			log.Fatal(err)
		}
		windows[gw] = append(windows[gw], reading)

		if (arrival+1)%3000 == 0 {
			sky := srv.Skyline()
			fmt.Printf("after %5d arrivals: %2d global skyline readings (best P = %.3f)\n",
				arrival+1, len(sky), sky[0].Prob)
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("\n%d slide operations (delete+insert) in %v — %.2f ms per slide\n",
		arrivals, elapsed.Round(time.Millisecond),
		float64(elapsed.Microseconds())/float64(arrivals)/1000)
	fmt.Printf("final answer: %d readings across %d gateways\n",
		len(srv.Skyline()), gateways)
}
