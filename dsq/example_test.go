package dsq_test

import (
	"context"
	"fmt"
	"log"

	"repro/dsq"
)

// The one-shot query through the consolidated entry points: Connect
// builds the cluster from one config, Cluster.Query runs the query.
func ExampleConnect() {
	parts := []dsq.DB{
		{{ID: 1, Point: dsq.Point{2.0, 3.0}, Prob: 0.9}},
		{{ID: 2, Point: dsq.Point{3.0, 2.0}, Prob: 0.6}},
		{{ID: 3, Point: dsq.Point{4.0, 4.0}, Prob: 0.8}},
	}
	cluster, err := dsq.Connect(dsq.ClusterConfig{Partitions: parts, Dims: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	report, err := cluster.Query(context.Background(), dsq.Options{Threshold: 0.3})
	if err != nil {
		log.Fatal(err)
	}
	// (2,3) and (3,2) are mutually incomparable and keep their existential
	// probabilities; (4,4) is dominated by both, leaving it
	// 0.8×(1−0.9)×(1−0.6) = 0.032 < 0.3.
	for _, m := range report.Skyline {
		fmt.Printf("%s P=%.2f\n", m.Tuple.Point, m.Prob)
	}
	// Output:
	// (2, 3) P=0.90
	// (3, 2) P=0.60
}

// A served answer stays current as tuples are inserted and deleted
// through its Server, without re-running the query from scratch (§5.4).
func ExampleCluster_Serve() {
	parts := []dsq.DB{
		{{ID: 1, Point: dsq.Point{5, 5}, Prob: 0.9}},
		{{ID: 2, Point: dsq.Point{8, 8}, Prob: 0.8}},
	}
	cluster, err := dsq.Connect(dsq.ClusterConfig{Partitions: parts, Dims: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	ctx := context.Background()
	m, err := cluster.Serve(ctx, dsq.ServeConfig{Floor: 0.3})
	if err != nil {
		log.Fatal(err)
	}
	show := func(label string) {
		for _, member := range m.Skyline() {
			fmt.Printf("%s: %s P=%.2f\n", label, member.Tuple.Point, member.Prob)
		}
	}
	// Initially (5,5) qualifies alone: it caps (8,8) at 0.8×0.1 = 0.08.
	show("initial")

	// A dominating insert displaces it...
	strong := dsq.Tuple{ID: 3, Point: dsq.Point{1, 1}, Prob: 0.95}
	if err := m.Insert(ctx, 1, strong); err != nil {
		log.Fatal(err)
	}
	show("insert ")

	// ...and deleting the newcomer restores it.
	if err := m.Delete(ctx, 1, strong); err != nil {
		log.Fatal(err)
	}
	show("delete ")
	// Output:
	// initial: (5, 5) P=0.90
	// insert : (1, 1) P=0.95
	// delete : (5, 5) P=0.90
}

// The minimal end-to-end query: three sites, one uncertain tuple each.
func ExampleCluster_Query() {
	parts := []dsq.DB{
		{{ID: 1, Point: dsq.Point{6.0, 6.0}, Prob: 0.7}},
		{{ID: 2, Point: dsq.Point{6.5, 7.0}, Prob: 0.8}},
		{{ID: 3, Point: dsq.Point{6.4, 7.5}, Prob: 0.9}},
	}
	cluster, err := dsq.Connect(dsq.ClusterConfig{Partitions: parts, Dims: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	report, err := cluster.Query(context.Background(), dsq.Options{Threshold: 0.3})
	if err != nil {
		log.Fatal(err)
	}
	// Only (6,6) reaches the 0.3 threshold: it dominates both other
	// tuples, capping them at 0.8×0.3 = 0.24 and 0.9×0.3×0.2 = 0.054.
	for _, m := range report.Skyline {
		fmt.Printf("%s P=%.3f\n", m.Tuple.Point, m.Prob)
	}
	// Output:
	// (6, 6) P=0.700
}

// Progressive delivery: results stream through the callback the moment
// their exact global probability is confirmed.
func ExampleOptions_onResult() {
	parts := []dsq.DB{
		{{ID: 1, Point: dsq.Point{1, 9}, Prob: 0.9}},
		{{ID: 2, Point: dsq.Point{9, 1}, Prob: 0.8}},
	}
	report, err := dsq.QueryPartitions(context.Background(), parts, 2, dsq.Options{
		Threshold: 0.5,
		OnResult: func(r dsq.Result) {
			fmt.Printf("found %s from site %d\n", r.Tuple.Point, r.Site)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	// Two representatives and each site's one-point summary come up; the
	// two feedback tuples go to no site, since neither site holds a
	// dominator of the other's; site 1 prunes by the first on the Next
	// that finds it exhausted.
	fmt.Printf("%d tuples over the wire\n", report.Bandwidth.Tuples())
	// Output:
	// found (1, 9) from site 0
	// found (9, 1) from site 1
	// 5 tuples over the wire
}

// SkylineProbability evaluates the paper's eq. 3 directly.
func ExampleSkylineProbability() {
	db := dsq.DB{
		{ID: 1, Point: dsq.Point{1, 1}, Prob: 0.5}, // dominates tuple 2
		{ID: 2, Point: dsq.Point{2, 2}, Prob: 0.8},
	}
	fmt.Printf("%.2f\n", dsq.SkylineProbability(db[1], db, nil))
	// Output:
	// 0.40
}

// A sliding window keeps the answer current as the stream moves.
func ExampleNewSlidingWindow() {
	w, err := dsq.NewSlidingWindow(2, 0.3, nil)
	if err != nil {
		log.Fatal(err)
	}
	// A strong tuple, then a dominated one, then the window slides.
	for _, tu := range []dsq.Tuple{
		{ID: 1, Point: dsq.Point{1, 1}, Prob: 0.9},
		{ID: 2, Point: dsq.Point{5, 5}, Prob: 0.8},
		{ID: 3, Point: dsq.Point{9, 9}, Prob: 0.7},
	} {
		if _, err := w.Append(tu); err != nil {
			log.Fatal(err)
		}
	}
	// Tuple 1 has slid out; tuple 3 is suppressed by tuple 2 (its current
	// probability 0.7 × 0.2 = 0.14 is below the 0.3 threshold), but it
	// stays a candidate in case tuple 2 expires first.
	for _, m := range w.Skyline() {
		fmt.Printf("%s P=%.2f\n", m.Tuple.Point, m.Prob)
	}
	fmt.Println("candidates:", w.Candidates())
	// Output:
	// (5, 5) P=0.80
	// candidates: 2
}
