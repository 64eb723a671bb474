package core

import (
	"context"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/uncertain"
)

// Several queries with different parameters must be able to run against
// the same cluster concurrently, each getting the exact answer and exact
// per-query tuple accounting — the point of per-query site sessions.
func TestConcurrentQueriesOnSharedCluster(t *testing.T) {
	parts, union := makeWorkload(t, 800, 3, 6, gen.Anticorrelated, 211)
	cluster, err := Open(ClusterConfig{Partitions: parts, Dims: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	queries := []Options{
		{Threshold: 0.3, Algorithm: EDSUD},
		{Threshold: 0.5, Algorithm: DSUD},
		{Threshold: 0.7, Algorithm: EDSUD},
		{Threshold: 0.3, Dims: []int{0, 1}, Algorithm: EDSUD},
		{Threshold: 0.3, Algorithm: Baseline},
		{Threshold: 0.4, Algorithm: EDSUD, TopK: 5},
	}
	// Establish expected answers and sequential bandwidths first, on the
	// shared cluster: each query's first run ships the sites' summaries of
	// its subspace, which the cluster then holds, so the second is the
	// reference every concurrent run must match.
	sequential := make([]*Report, len(queries))
	for i, opts := range queries {
		for range 2 {
			rep, err := Run(context.Background(), cluster, opts)
			if err != nil {
				t.Fatal(err)
			}
			sequential[i] = rep
		}
	}

	const rounds = 3
	var wg sync.WaitGroup
	errs := make([]error, len(queries)*rounds)
	reports := make([]*Report, len(queries)*rounds)
	for round := 0; round < rounds; round++ {
		for qi, opts := range queries {
			wg.Add(1)
			go func(slot int, opts Options) {
				defer wg.Done()
				rep, err := Run(context.Background(), cluster, opts)
				if err != nil {
					errs[slot] = err
					return
				}
				reports[slot] = rep
			}(round*len(queries)+qi, opts)
		}
	}
	wg.Wait()
	for slot, err := range errs {
		if err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
	}
	for slot, rep := range reports {
		qi := slot % len(queries)
		opts := queries[qi]
		want := union.Skyline(opts.Threshold, opts.Dims)
		if opts.TopK > 0 && len(want) > opts.TopK {
			want = want[:opts.TopK]
		}
		if !uncertain.MembersEqual(rep.Skyline, want, 1e-9) {
			t.Fatalf("slot %d (q=%v): concurrent answer diverged (%d vs %d)",
				slot, opts.Threshold, len(rep.Skyline), len(want))
		}
		// Per-query tuple accounting must match the sequential run exactly,
		// interleaving or not.
		if got, wantBW := rep.Bandwidth.Tuples(), sequential[qi].Bandwidth.Tuples(); got != wantBW {
			t.Fatalf("slot %d: per-query bandwidth %d, sequential reference %d", slot, got, wantBW)
		}
	}
}

// Sessions must be released when queries finish.
func TestSessionsReleasedAfterQuery(t *testing.T) {
	parts, _ := makeWorkload(t, 200, 2, 3, gen.Independent, 212)
	cluster, err := Open(ClusterConfig{Partitions: parts, Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	for i := 0; i < maxSessionsProbe; i++ {
		if _, err := Run(context.Background(), cluster, Options{Threshold: 0.3}); err != nil {
			t.Fatalf("query %d: %v (sessions leaking?)", i, err)
		}
	}
}

// maxSessionsProbe exceeds the per-site session cap, so the test
// fails if end-query cleanup ever stops working.
const maxSessionsProbe = 200
