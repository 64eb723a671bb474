package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/uncertain"
)

// Every ablation configuration must still return the exact answer — the
// switches trade bandwidth, never correctness.
func TestAblationsPreserveCorrectness(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	for trial := 0; trial < 8; trial++ {
		parts, union := makeWorkload(t, 250, 3, 5, gen.Independent, r.Int63())
		want := union.Skyline(0.3, nil)
		cases := []Options{
			{Threshold: 0.3, Algorithm: EDSUD, DisableExpunge: true},
			{Threshold: 0.3, Algorithm: EDSUD, DisableSitePruning: true},
			{Threshold: 0.3, Algorithm: EDSUD, DisableExpunge: true, DisableSitePruning: true},
			{Threshold: 0.3, Algorithm: EDSUD, Policy: PolicyRoundRobin},
			{Threshold: 0.3, Algorithm: DSUD, Policy: PolicyRoundRobin},
			{Threshold: 0.3, Algorithm: DSUD, DisableSitePruning: true},
		}
		for i, opts := range cases {
			got := runAlgo(t, parts, 3, opts)
			if !uncertain.MembersEqual(got.Skyline, want, 1e-9) {
				t.Fatalf("trial %d case %d (%+v): answer diverged (%d vs %d)",
					trial, i, opts, len(got.Skyline), len(want))
			}
		}
	}
}

// The ablation story: each e-DSUD ingredient pays for itself.
func TestAblationCostOrdering(t *testing.T) {
	parts, _ := makeWorkload(t, 4000, 3, 10, gen.Independent, 82)

	full := runAlgo(t, parts, 3, Options{Threshold: 0.3, Algorithm: EDSUD})
	noExpunge := runAlgo(t, parts, 3, Options{Threshold: 0.3, Algorithm: EDSUD, DisableExpunge: true})
	noPrune := runAlgo(t, parts, 3, Options{Threshold: 0.3, Algorithm: EDSUD, DisableSitePruning: true})
	neither := runAlgo(t, parts, 3, Options{
		Threshold: 0.3, Algorithm: EDSUD, DisableExpunge: true, DisableSitePruning: true,
	})

	if full.Bandwidth.Tuples() > noExpunge.Bandwidth.Tuples() {
		t.Errorf("expunge should not cost bandwidth: %d vs %d",
			full.Bandwidth.Tuples(), noExpunge.Bandwidth.Tuples())
	}
	if full.Bandwidth.Tuples() > noPrune.Bandwidth.Tuples() {
		t.Errorf("site pruning should not cost bandwidth: %d vs %d",
			full.Bandwidth.Tuples(), noPrune.Bandwidth.Tuples())
	}
	if full.Bandwidth.Tuples() >= neither.Bandwidth.Tuples() {
		t.Errorf("full e-DSUD (%d) should beat the stripped variant (%d)",
			full.Bandwidth.Tuples(), neither.Bandwidth.Tuples())
	}
	if noExpunge.Expunged != 0 {
		t.Error("DisableExpunge must suppress expunging")
	}
	if noPrune.PrunedLocal != 0 {
		t.Error("DisableSitePruning must suppress local pruning")
	}
}

func TestMaxResultsStopsEarly(t *testing.T) {
	parts, union := makeWorkload(t, 1500, 3, 6, gen.Anticorrelated, 83)
	total := len(union.Skyline(0.3, nil))
	if total < 10 {
		t.Fatalf("workload too small for the test: %d skyline tuples", total)
	}
	for _, algo := range []Algorithm{Baseline, DSUD, EDSUD} {
		fullRep := runAlgo(t, parts, 3, Options{Threshold: 0.3, Algorithm: algo})
		got := runAlgo(t, parts, 3, Options{Threshold: 0.3, Algorithm: algo, MaxResults: 5})
		if len(got.Skyline) != 5 {
			t.Fatalf("%v: MaxResults=5 returned %d tuples", algo, len(got.Skyline))
		}
		// Every returned tuple must be a genuine member of the full answer.
		valid := map[uncertain.TupleID]bool{}
		for _, m := range fullRep.Skyline {
			valid[m.Tuple.ID] = true
		}
		for _, m := range got.Skyline {
			if !valid[m.Tuple.ID] {
				t.Fatalf("%v: MaxResults returned non-member %v", algo, m)
			}
		}
		if algo != Baseline && got.Bandwidth.Tuples() >= fullRep.Bandwidth.Tuples() {
			t.Errorf("%v: early stop (%d tuples) should cost less than the full query (%d)",
				algo, got.Bandwidth.Tuples(), fullRep.Bandwidth.Tuples())
		}
	}
}

func TestMaxResultsLargerThanAnswer(t *testing.T) {
	parts, union := makeWorkload(t, 200, 2, 3, gen.Independent, 84)
	want := union.Skyline(0.3, nil)
	got := runAlgo(t, parts, 2, Options{Threshold: 0.3, MaxResults: 10_000})
	if !uncertain.MembersEqual(got.Skyline, want, 1e-9) {
		t.Fatal("oversized MaxResults must return the complete answer")
	}
}

func TestPolicyValidation(t *testing.T) {
	parts, _ := makeWorkload(t, 30, 2, 2, gen.Independent, 85)
	cluster, err := NewLocalCluster(parts, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if _, err := Run(context.Background(), cluster, Options{Threshold: 0.3, Policy: FeedbackPolicy(9)}); err == nil {
		t.Error("unknown policy must be rejected")
	}
	if _, err := Run(context.Background(), cluster, Options{Threshold: 0.3, MaxResults: -1}); err == nil {
		t.Error("negative MaxResults must be rejected")
	}
}

func TestPolicyStrings(t *testing.T) {
	for _, p := range []FeedbackPolicy{PolicyAlgorithm, PolicyRoundRobin} {
		if p.String() == "" {
			t.Errorf("policy %d has empty string", int(p))
		}
	}
	if FeedbackPolicy(9).String() == "" {
		t.Error("unknown policy must render")
	}
}
