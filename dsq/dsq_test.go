package dsq_test

import (
	"context"
	"math"
	"testing"

	"repro/dsq"
)

func workload(t *testing.T, n, d, m int) ([]dsq.DB, dsq.DB) {
	t.Helper()
	db, err := dsq.GenerateWorkload(dsq.WorkloadConfig{
		N: n, Dims: d, Values: dsq.Independent, Probs: dsq.UniformProb, Seed: 101,
	})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := dsq.PartitionWorkload(db, m, 102)
	if err != nil {
		t.Fatal(err)
	}
	return parts, db
}

func TestQueryPartitions(t *testing.T) {
	parts, union := workload(t, 400, 3, 4)
	report, err := dsq.QueryPartitions(context.Background(), parts, 3, dsq.Options{Threshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	want := dsq.CentralSkyline(union, 0.3, nil)
	if len(report.Skyline) != len(want) {
		t.Fatalf("answer size %d, want %d", len(report.Skyline), len(want))
	}
	for i := range want {
		if report.Skyline[i].Tuple.ID != want[i].Tuple.ID ||
			math.Abs(report.Skyline[i].Prob-want[i].Prob) > 1e-9 {
			t.Fatalf("member %d mismatch: %v vs %v", i, report.Skyline[i], want[i])
		}
	}
	if report.Bandwidth.Tuples() == 0 {
		t.Error("bandwidth must be recorded")
	}
}

func TestQueryWithExplicitClusterAndCallback(t *testing.T) {
	parts, _ := workload(t, 300, 2, 3)
	cluster, err := dsq.Connect(dsq.ClusterConfig{Partitions: parts, Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	var streamed int
	report, err := cluster.Query(context.Background(), dsq.Options{
		Threshold: 0.3,
		Algorithm: dsq.DSUD,
		OnResult:  func(dsq.Result) { streamed++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if streamed != len(report.Skyline) {
		t.Fatalf("streamed %d, report has %d", streamed, len(report.Skyline))
	}
}

func TestSkylineProbability(t *testing.T) {
	db := dsq.DB{
		{ID: 1, Point: dsq.Point{1, 1}, Prob: 0.5},
		{ID: 2, Point: dsq.Point{2, 2}, Prob: 0.8},
	}
	// Tuple 2 is dominated by tuple 1: 0.8 × (1−0.5) = 0.4.
	if got := dsq.SkylineProbability(db[1], db, nil); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("SkylineProbability = %v, want 0.4", got)
	}
	if got := dsq.SkylineProbability(db[0], db, nil); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("SkylineProbability = %v, want 0.5", got)
	}
}

func TestMaintainerThroughFacade(t *testing.T) {
	parts, _ := workload(t, 150, 2, 3)
	cluster, err := dsq.Connect(dsq.ClusterConfig{Partitions: parts, Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx := context.Background()
	maint, err := cluster.Serve(ctx, dsq.ServeConfig{Floor: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	tu := dsq.Tuple{ID: 9001, Point: dsq.Point{0.001, 0.001}, Prob: 0.99}
	if err := maint.Insert(ctx, 0, tu); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range maint.Skyline() {
		if m.Tuple.ID == tu.ID {
			found = true
		}
	}
	if !found {
		t.Fatal("dominant insert must join the skyline")
	}
	if err := maint.Delete(ctx, 0, tu); err != nil {
		t.Fatal(err)
	}
	for _, m := range maint.Skyline() {
		if m.Tuple.ID == tu.ID {
			t.Fatal("deleted tuple must leave the skyline")
		}
	}
}

func TestAlgorithmsExposedAndDistinct(t *testing.T) {
	seen := map[dsq.Algorithm]bool{dsq.Baseline: true, dsq.DSUD: true, dsq.EDSUD: true}
	if len(seen) != 3 {
		t.Fatal("algorithm constants must be distinct")
	}
}

func TestVerticalThroughFacade(t *testing.T) {
	db, err := dsq.GenerateWorkload(dsq.WorkloadConfig{
		N: 500, Dims: 3, Values: dsq.Correlated, Probs: dsq.UniformProb, Seed: 301,
	})
	if err != nil {
		t.Fatal(err)
	}
	sites, err := dsq.SplitVertical(db)
	if err != nil {
		t.Fatal(err)
	}
	sky, stats, err := dsq.QueryVertical(sites, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	want := dsq.CentralSkyline(db, 0.3, nil)
	if len(sky) != len(want) {
		t.Fatalf("vertical answer %d, central %d", len(sky), len(want))
	}
	if stats.Entries() == 0 {
		t.Fatal("stats must be populated")
	}
}

func TestAngularPartitionThroughFacade(t *testing.T) {
	db, err := dsq.GenerateWorkload(dsq.WorkloadConfig{
		N: 300, Dims: 2, Values: dsq.Independent, Probs: dsq.UniformProb, Seed: 302,
	})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := dsq.PartitionWorkloadAngular(db, 5)
	if err != nil {
		t.Fatal(err)
	}
	report, err := dsq.QueryPartitions(context.Background(), parts, 2, dsq.Options{Threshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	want := dsq.CentralSkyline(db, 0.3, nil)
	if len(report.Skyline) != len(want) {
		t.Fatalf("angular answer %d, central %d", len(report.Skyline), len(want))
	}
}

func TestTopKThroughFacade(t *testing.T) {
	parts, union := workload(t, 500, 3, 4)
	report, err := dsq.QueryPartitions(context.Background(), parts, 3, dsq.Options{
		Threshold: 0.1, TopK: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := dsq.CentralSkyline(union, 0.1, nil)
	if len(report.Skyline) != 3 {
		t.Fatalf("TopK answer size %d", len(report.Skyline))
	}
	for i := 0; i < 3; i++ {
		if report.Skyline[i].Tuple.ID != want[i].Tuple.ID {
			t.Fatalf("rank %d mismatch", i)
		}
	}
}
