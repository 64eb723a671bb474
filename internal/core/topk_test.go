package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
)

// TopK must return exactly the K most probable members of the full
// answer, for every algorithm.
func TestTopKExactness(t *testing.T) {
	r := rand.New(rand.NewSource(191))
	for trial := 0; trial < 8; trial++ {
		n := 300 + r.Intn(500)
		m := 2 + r.Intn(6)
		parts, union := makeWorkload(t, n, 3, m, gen.Anticorrelated, r.Int63())
		full := union.Skyline(0.1, nil)
		if len(full) < 8 {
			continue
		}
		k := 1 + r.Intn(6)
		for _, algo := range []Algorithm{Baseline, DSUD, EDSUD} {
			got := runAlgo(t, parts, 3, Options{Threshold: 0.1, Algorithm: algo, TopK: k})
			if len(got.Skyline) != k {
				t.Fatalf("trial %d %v: got %d answers, want %d", trial, algo, len(got.Skyline), k)
			}
			for i := 0; i < k; i++ {
				if got.Skyline[i].Tuple.ID != full[i].Tuple.ID ||
					math.Abs(got.Skyline[i].Prob-full[i].Prob) > 1e-9 {
					t.Fatalf("trial %d %v: rank %d is %v, want %v",
						trial, algo, i, got.Skyline[i], full[i])
				}
			}
		}
	}
}

// topKCombos are the option combinations TopK stays legal with. Its two
// early exits need the feedback to be the queue maximum under the
// algorithm's own rule and, for e-DSUD, expunge to have run; Validate
// rejects the ablations that break either (Policy, DisableExpunge), and
// pointing this list at them is how to see why: they return a wrong
// top-k without an error.
var topKCombos = []Options{
	{Algorithm: DSUD},
	{Algorithm: EDSUD},
	{Algorithm: EDSUD, DisableSitePruning: true},
}

// Every legal TopK combination returns the first K of the sorted
// brute-force skyline, over a seeded sweep.
func TestTopKMatchesOracleUnderAblations(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		parts, union := makeWorkload(t, 400, 3, 6, gen.Independent, seed)
		full := union.Skyline(0.1, nil)
		for _, k := range []int{1, 3, 5} {
			want := full[:min(k, len(full))]
			for _, opts := range topKCombos {
				opts.Threshold, opts.TopK = 0.1, k
				got := runAlgo(t, parts, 3, opts).Skyline
				if len(got) != len(want) {
					t.Fatalf("seed %d K=%d %+v: %d answers, want %d", seed, k, opts, len(got), len(want))
				}
				for i := range want {
					if got[i].Tuple.ID != want[i].Tuple.ID || math.Abs(got[i].Prob-want[i].Prob) > 1e-9 {
						t.Fatalf("seed %d K=%d %+v: rank %d is %v, want %v", seed, k, opts, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// Top-k must terminate early: fewer broadcasts than the full enumeration.
func TestTopKSavesBandwidth(t *testing.T) {
	parts, union := makeWorkload(t, 4000, 3, 10, gen.Anticorrelated, 192)
	full := runAlgo(t, parts, 3, Options{Threshold: 0.1, Algorithm: EDSUD})
	if len(full.Skyline) < 20 {
		t.Skipf("answer too small: %d", len(full.Skyline))
	}
	top5 := runAlgo(t, parts, 3, Options{Threshold: 0.1, Algorithm: EDSUD, TopK: 5})
	if top5.Broadcasts >= full.Broadcasts {
		t.Errorf("top-5 broadcast %d times, full query %d — no early termination",
			top5.Broadcasts, full.Broadcasts)
	}
	if top5.Bandwidth.Tuples() >= full.Bandwidth.Tuples() {
		t.Errorf("top-5 bandwidth %d, full %d", top5.Bandwidth.Tuples(), full.Bandwidth.Tuples())
	}
	// Same data, centralized comparison.
	want := union.Skyline(0.1, nil)[:5]
	for i := range want {
		if top5.Skyline[i].Tuple.ID != want[i].Tuple.ID {
			t.Fatalf("rank %d mismatch", i)
		}
	}
}

func TestTopKLargerThanAnswer(t *testing.T) {
	parts, union := makeWorkload(t, 200, 2, 3, gen.Independent, 193)
	full := union.Skyline(0.3, nil)
	got := runAlgo(t, parts, 2, Options{Threshold: 0.3, Algorithm: EDSUD, TopK: 10_000})
	if len(got.Skyline) != len(full) {
		t.Fatalf("oversized TopK: %d vs %d", len(got.Skyline), len(full))
	}
}

func TestTopKValidation(t *testing.T) {
	parts, _ := makeWorkload(t, 30, 2, 2, gen.Independent, 194)
	cluster, err := NewLocalCluster(parts, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if _, err := Run(context.Background(), cluster, Options{Threshold: 0.3, TopK: -1}); err == nil {
		t.Error("negative TopK must be rejected")
	}
	if _, err := Run(context.Background(), cluster, Options{Threshold: 0.3, TopK: 3, MaxResults: 2}); err == nil {
		t.Error("TopK with MaxResults must be rejected")
	}
}
