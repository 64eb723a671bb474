package dsq_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/dsq"
)

// TestConnectAndQuery pins the consolidated public entry points: Connect
// validates its config, and one cluster serves concurrent Query calls.
func TestConnectAndQuery(t *testing.T) {
	db, err := dsq.GenerateWorkload(dsq.WorkloadConfig{N: 600, Dims: 2, Values: dsq.Anticorrelated, Probs: dsq.UniformProb, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := dsq.PartitionWorkload(db, 3, 99)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := dsq.Connect(dsq.ClusterConfig{Partitions: parts}); !errors.Is(err, dsq.ErrConfig) {
		t.Fatalf("Connect without Dims: got %v, want ErrConfig", err)
	}
	if _, err := dsq.Connect(dsq.ClusterConfig{Partitions: parts, Addrs: []string{"x"}, Dims: 2}); !errors.Is(err, dsq.ErrConfig) {
		t.Fatalf("Connect with both site kinds: got %v, want ErrConfig", err)
	}

	cluster, err := dsq.Connect(dsq.ClusterConfig{Partitions: parts, Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	want := dsq.CentralSkyline(db, 0.3, nil)
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := cluster.Query(context.Background(), dsq.Options{Threshold: 0.3})
			if err != nil {
				errs[i] = err
				return
			}
			if len(rep.Skyline) != len(want) {
				errs[i] = errors.New("concurrent query answer diverged from oracle")
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// The report names the resolved default algorithm.
	rep, err := cluster.Query(context.Background(), dsq.Options{Threshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Algorithm != dsq.EDSUD {
		t.Fatalf("default algorithm: got %v", rep.Algorithm)
	}

	// A second independently connected cluster answers identically.
	other, err := dsq.Connect(dsq.ClusterConfig{Partitions: parts, Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	rep2, err := other.Query(context.Background(), dsq.Options{Threshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Skyline) != len(want) {
		t.Fatal("second cluster answer diverged from oracle")
	}
}
