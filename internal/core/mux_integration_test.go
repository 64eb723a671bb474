package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/uncertain"
)

// TestConcurrentQueriesOverTCP is the tentpole concurrency test: eight
// Cluster.Query calls share one mux connection per live TCP site, two
// of them are cancelled mid-flight, and the shared connections must
// survive — the remaining queries and a follow-up query all produce the
// exact answer. Run under -race via the Makefile race target.
func TestConcurrentQueriesOverTCP(t *testing.T) {
	parts, union := makeWorkload(t, 1500, 3, 4, gen.Anticorrelated, 171)
	want := union.Skyline(0.3, nil)
	addrs := startTCPSites(t, parts, 3)
	cluster, err := Open(ClusterConfig{Addrs: addrs, Dims: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	const queries = 8
	const cancels = 2 // queries [0, cancels) get cancelled mid-flight
	var wg sync.WaitGroup
	errCh := make(chan error, queries)
	for q := 0; q < queries; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			if q < cancels {
				// Cancel as soon as the query is demonstrably mid-flight
				// (first progressive result delivered).
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				opts := Options{Threshold: 0.3, Algorithm: EDSUD,
					OnResult: func(Result) { cancel() }}
				_, err := cluster.Query(ctx, opts)
				if err == nil {
					// The query may legitimately win the race and finish
					// before the cancellation lands; both outcomes are
					// fine — what matters is that nothing else breaks.
					errCh <- nil
					return
				}
				if !errors.Is(err, context.Canceled) {
					errCh <- fmt.Errorf("cancelled query %d: got %v, want context.Canceled", q, err)
					return
				}
				errCh <- nil
				return
			}
			algo := EDSUD
			if q%2 == 0 {
				algo = DSUD
			}
			rep, err := cluster.Query(context.Background(), Options{Threshold: 0.3, Algorithm: algo})
			if err != nil {
				errCh <- fmt.Errorf("query %d (%v): %v", q, algo, err)
				return
			}
			if !uncertain.MembersEqual(rep.Skyline, want, 1e-9) {
				errCh <- fmt.Errorf("query %d (%v): %d members, oracle %d", q, algo, len(rep.Skyline), len(want))
				return
			}
			errCh <- nil
		}(q)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}

	// The cancellations above must not have killed the shared
	// connections: a fresh query on the same cluster still works.
	rep, err := cluster.Query(context.Background(), Options{Threshold: 0.3, Algorithm: EDSUD})
	if err != nil {
		t.Fatalf("query after mid-flight cancellations: connections unusable: %v", err)
	}
	if !uncertain.MembersEqual(rep.Skyline, want, 1e-9) {
		t.Fatalf("query after cancellations: %d members, oracle %d", len(rep.Skyline), len(want))
	}
}

// TestPerQueryByteAttributionExact pins the Report.Bandwidth.Bytes fix:
// with the v2 framed transport, two overlapping queries each get their
// own exact wire-byte count, and the two partition the cluster-wide
// total — no smearing, no upper bounds.
func TestPerQueryByteAttributionExact(t *testing.T) {
	parts, _ := makeWorkload(t, 800, 2, 3, gen.Independent, 172)
	addrs := startTCPSites(t, parts, 2)
	cluster, err := Open(ClusterConfig{Addrs: addrs, Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	before := cluster.Meter().Snapshot().Bytes

	var wg sync.WaitGroup
	reps := make([]*Report, 2)
	errs := make([]error, 2)
	start := make(chan struct{})
	for i := range reps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			algo := EDSUD
			if i == 1 {
				algo = DSUD // different algorithms ⇒ different byte totals
			}
			reps[i], errs[i] = cluster.Query(context.Background(), Options{Threshold: 0.3, Algorithm: algo})
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}

	delta := cluster.Meter().Snapshot().Bytes - before
	sum := reps[0].Bandwidth.Bytes + reps[1].Bandwidth.Bytes
	if reps[0].Bandwidth.Bytes <= 0 || reps[1].Bandwidth.Bytes <= 0 {
		t.Fatalf("per-query bytes must be positive: %d and %d",
			reps[0].Bandwidth.Bytes, reps[1].Bandwidth.Bytes)
	}
	if sum != delta {
		t.Fatalf("concurrent queries' bytes must partition the cluster total exactly: %d + %d = %d, cluster delta %d",
			reps[0].Bandwidth.Bytes, reps[1].Bandwidth.Bytes, sum, delta)
	}
}

// TestOpenConfigValidation pins the consolidated constructor's contract.
func TestOpenConfigValidation(t *testing.T) {
	parts, _ := makeWorkload(t, 50, 2, 2, gen.Independent, 173)
	if _, err := Open(ClusterConfig{Dims: 2}); !errors.Is(err, ErrNoSites) {
		t.Fatalf("no sites: got %v, want ErrNoSites", err)
	}
	if _, err := Open(ClusterConfig{Partitions: parts, Addrs: []string{"x"}, Dims: 2}); !errors.Is(err, ErrConfig) {
		t.Fatalf("both partition kinds: got %v, want ErrConfig", err)
	}
	if _, err := Open(ClusterConfig{Partitions: parts}); !errors.Is(err, ErrConfig) {
		t.Fatalf("zero dims: got %v, want ErrConfig", err)
	}
	c, err := Open(ClusterConfig{Partitions: parts, Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if rep, err := c.Query(context.Background(), Options{Threshold: 0.3, Trace: NewTrace()}); err != nil || rep.Algorithm != EDSUD {
		t.Fatalf("Query: algorithm=%v err=%v", rep.Algorithm, err)
	}
}
