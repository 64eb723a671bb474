package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/uncertain"
)

// makeWorkload generates a partitioned uncertain database and its union.
func makeWorkload(t testing.TB, n, d, m int, values gen.ValueDist, seed int64) ([]uncertain.DB, uncertain.DB) {
	t.Helper()
	db, err := gen.Generate(gen.Config{N: n, Dims: d, Values: values, Probs: gen.UniformProb, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := gen.Partition(db, m, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	return parts, db
}

func runAlgo(t testing.TB, parts []uncertain.DB, d int, opts Options) *Report {
	t.Helper()
	cluster, err := Open(ClusterConfig{Partitions: parts, Dims: d})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	rep, err := Run(context.Background(), cluster, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// All three algorithms must return exactly the brute-force answer.
func TestAlgorithmsAgreeWithOracle(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		n := 100 + r.Intn(400)
		d := 2 + r.Intn(3)
		m := 1 + r.Intn(8)
		q := []float64{0.1, 0.3, 0.5, 0.8}[r.Intn(4)]
		values := []gen.ValueDist{gen.Independent, gen.Anticorrelated, gen.Correlated}[r.Intn(3)]
		parts, union := makeWorkload(t, n, d, m, values, r.Int63())
		want := union.Skyline(q, nil)
		for _, algo := range []Algorithm{Baseline, DSUD, EDSUD} {
			got := runAlgo(t, parts, d, Options{Threshold: q, Algorithm: algo})
			if !uncertain.MembersEqual(got.Skyline, want, 1e-9) {
				t.Fatalf("trial %d (%v n=%d d=%d m=%d q=%v): %v returned %d members, oracle %d",
					trial, values, n, d, m, q, algo, len(got.Skyline), len(want))
			}
		}
	}
}

func TestSubspaceQueriesAgreeWithOracle(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	for trial := 0; trial < 10; trial++ {
		d := 3 + r.Intn(2)
		parts, union := makeWorkload(t, 300, d, 5, gen.Independent, r.Int63())
		dims := []int{0, d - 1}
		want := union.Skyline(0.3, dims)
		for _, algo := range []Algorithm{Baseline, DSUD, EDSUD} {
			got := runAlgo(t, parts, d, Options{Threshold: 0.3, Dims: dims, Algorithm: algo})
			if !uncertain.MembersEqual(got.Skyline, want, 1e-9) {
				t.Fatalf("trial %d: %v subspace mismatch (%d vs oracle %d)",
					trial, algo, len(got.Skyline), len(want))
			}
		}
	}
}

func TestSingleSiteCluster(t *testing.T) {
	parts, union := makeWorkload(t, 300, 3, 1, gen.Anticorrelated, 5)
	want := union.Skyline(0.3, nil)
	for _, algo := range []Algorithm{Baseline, DSUD, EDSUD} {
		got := runAlgo(t, parts, 3, Options{Threshold: 0.3, Algorithm: algo})
		if !uncertain.MembersEqual(got.Skyline, want, 1e-9) {
			t.Fatalf("%v single-site mismatch", algo)
		}
	}
}

func TestEmptyPartitionsTolerated(t *testing.T) {
	parts, union := makeWorkload(t, 50, 2, 3, gen.Independent, 6)
	parts = append(parts, uncertain.DB{}) // one empty site
	want := union.Skyline(0.3, nil)
	for _, algo := range []Algorithm{Baseline, DSUD, EDSUD} {
		got := runAlgo(t, parts, 2, Options{Threshold: 0.3, Algorithm: algo})
		if !uncertain.MembersEqual(got.Skyline, want, 1e-9) {
			t.Fatalf("%v mismatch with empty partition", algo)
		}
	}
}

func TestHighThresholdMayYieldEmptySkyline(t *testing.T) {
	parts, union := makeWorkload(t, 400, 3, 4, gen.Independent, 7)
	want := union.Skyline(0.999, nil)
	got := runAlgo(t, parts, 3, Options{Threshold: 0.999, Algorithm: EDSUD})
	if !uncertain.MembersEqual(got.Skyline, want, 1e-9) {
		t.Fatalf("q=0.999 mismatch: %d vs %d", len(got.Skyline), len(want))
	}
}

func TestOptionsValidation(t *testing.T) {
	parts, _ := makeWorkload(t, 20, 2, 2, gen.Independent, 8)
	cluster, err := Open(ClusterConfig{Partitions: parts, Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	bad := []Options{
		{Threshold: 0},
		{Threshold: -0.5},
		{Threshold: 1.5},
		{Threshold: 0.3, Dims: []int{5}},
		{Threshold: 0.3, Dims: []int{}},
		{Threshold: 0.3, Dims: []int{0, 0}},
		{Threshold: 0.3, Algorithm: Algorithm(42)},
	}
	for i, opts := range bad {
		if _, err := Run(context.Background(), cluster, opts); err == nil {
			t.Errorf("case %d: options %+v must be rejected", i, opts)
		}
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := Open(ClusterConfig{Dims: 2}); err == nil {
		t.Error("empty cluster must be rejected")
	}
	badPart := []uncertain.DB{{{ID: 1, Point: geom.Point{1}, Prob: 0.5}}}
	if _, err := Open(ClusterConfig{Partitions: badPart, Dims: 2}); err == nil {
		t.Error("dimensionality mismatch must be rejected")
	}
	dup := []uncertain.DB{{
		{ID: 1, Point: geom.Point{1, 1}, Prob: 0.5},
		{ID: 1, Point: geom.Point{2, 2}, Prob: 0.5},
	}}
	if _, err := Open(ClusterConfig{Partitions: dup, Dims: 2}); err == nil {
		t.Error("duplicate IDs must be rejected")
	}
}

func TestProgressiveDelivery(t *testing.T) {
	parts, union := makeWorkload(t, 500, 3, 6, gen.Anticorrelated, 9)
	want := union.Skyline(0.3, nil)
	for _, algo := range []Algorithm{Baseline, DSUD, EDSUD} {
		var streamed []uncertain.SkylineMember
		got := runAlgo(t, parts, 3, Options{
			Threshold: 0.3,
			Algorithm: algo,
			OnResult: func(res Result) {
				streamed = append(streamed, uncertain.SkylineMember{Tuple: res.Tuple, Prob: res.GlobalProb})
			},
		})
		if !uncertain.MembersEqual(streamed, want, 1e-9) {
			t.Fatalf("%v: streamed results differ from oracle", algo)
		}
		if len(got.Progress) != len(want) {
			t.Fatalf("%v: %d progress points for %d results", algo, len(got.Progress), len(want))
		}
		for i := 1; i < len(got.Progress); i++ {
			p, prev := got.Progress[i], got.Progress[i-1]
			if p.K != prev.K+1 {
				t.Fatalf("%v: progress counts not sequential", algo)
			}
			if p.Tuples < prev.Tuples {
				t.Fatalf("%v: cumulative bandwidth decreased", algo)
			}
			if p.NS < prev.NS {
				t.Fatalf("%v: cumulative time decreased", algo)
			}
		}
	}
}

func TestBandwidthOrdering(t *testing.T) {
	// The paper's headline: e-DSUD < DSUD << Baseline, and every
	// algorithm's cost is at least the Ceiling |SKY| × m for m > 1.
	parts, union := makeWorkload(t, 3000, 3, 10, gen.Independent, 10)
	base := runAlgo(t, parts, 3, Options{Threshold: 0.3, Algorithm: Baseline})
	dsud := runAlgo(t, parts, 3, Options{Threshold: 0.3, Algorithm: DSUD})
	edsud := runAlgo(t, parts, 3, Options{Threshold: 0.3, Algorithm: EDSUD})

	if got, want := base.Bandwidth.Tuples(), int64(len(union)); got != want {
		t.Errorf("baseline bandwidth = %d, want |D| = %d", got, want)
	}
	if dsud.Bandwidth.Tuples() >= base.Bandwidth.Tuples() {
		t.Errorf("DSUD (%d) should beat baseline (%d)", dsud.Bandwidth.Tuples(), base.Bandwidth.Tuples())
	}
	if edsud.Bandwidth.Tuples() > dsud.Bandwidth.Tuples() {
		t.Errorf("e-DSUD (%d) should not exceed DSUD (%d)", edsud.Bandwidth.Tuples(), dsud.Bandwidth.Tuples())
	}
	ceiling := int64(len(edsud.Skyline)) * int64(len(parts))
	if edsud.Bandwidth.Tuples() < ceiling {
		t.Errorf("e-DSUD bandwidth (%d) below the information-theoretic ceiling (%d)",
			edsud.Bandwidth.Tuples(), ceiling)
	}
	if edsud.Expunged == 0 {
		t.Error("e-DSUD should expunge some candidates on this workload")
	}
	if dsud.Expunged != 0 {
		t.Error("DSUD must never expunge")
	}
}

func TestContextCancellation(t *testing.T) {
	parts, _ := makeWorkload(t, 2000, 3, 8, gen.Anticorrelated, 11)
	cluster, err := Open(ClusterConfig{Partitions: parts, Dims: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, cluster, Options{Threshold: 0.3}); err == nil {
		t.Fatal("pre-cancelled context must abort the query")
	}

	// Cancel mid-flight from the progressive callback.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	n := 0
	_, err = Run(ctx, cluster, Options{
		Threshold: 0.1,
		Algorithm: DSUD,
		OnResult: func(Result) {
			n++
			if n == 3 {
				cancel()
			}
		},
	})
	if err == nil {
		t.Fatal("mid-flight cancellation must surface an error")
	}
	if n < 3 {
		t.Fatalf("expected at least 3 results before cancel, got %d", n)
	}
}

func TestDeterministicAnswer(t *testing.T) {
	parts, _ := makeWorkload(t, 800, 3, 6, gen.Independent, 12)
	a := runAlgo(t, parts, 3, Options{Threshold: 0.3, Algorithm: EDSUD})
	b := runAlgo(t, parts, 3, Options{Threshold: 0.3, Algorithm: EDSUD})
	if len(a.Skyline) != len(b.Skyline) {
		t.Fatal("answer not deterministic")
	}
	for i := range a.Skyline {
		if a.Skyline[i].Tuple.ID != b.Skyline[i].Tuple.ID ||
			math.Abs(a.Skyline[i].Prob-b.Skyline[i].Prob) > 1e-12 {
			t.Fatal("answer ordering not deterministic")
		}
	}
	if a.Bandwidth.Tuples() != b.Bandwidth.Tuples() {
		t.Fatal("bandwidth not deterministic")
	}
}

func TestReportMetadata(t *testing.T) {
	parts, _ := makeWorkload(t, 600, 3, 5, gen.Independent, 13)
	rep := runAlgo(t, parts, 3, Options{Threshold: 0.3, Algorithm: EDSUD})
	if rep.Iterations == 0 || rep.Broadcasts == 0 {
		t.Errorf("expected nonzero iterations/broadcasts: %+v", rep)
	}
	if rep.Elapsed <= 0 {
		t.Error("elapsed must be positive")
	}
	for _, m := range rep.Skyline {
		home, ok := rep.Sites[m.Tuple.ID]
		if !ok {
			t.Fatalf("missing home site for %v", m.Tuple.ID)
		}
		found := false
		for _, tu := range parts[home] {
			if tu.ID == m.Tuple.ID {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("tuple %d not in its claimed home partition %d", m.Tuple.ID, home)
		}
	}
}

// Threshold monotonicity must hold end-to-end through the distributed path.
func TestDistributedThresholdMonotonicity(t *testing.T) {
	parts, _ := makeWorkload(t, 700, 3, 6, gen.Anticorrelated, 14)
	var prev map[uncertain.TupleID]bool
	for _, q := range []float64{0.3, 0.5, 0.7, 0.9} {
		rep := runAlgo(t, parts, 3, Options{Threshold: q, Algorithm: EDSUD})
		cur := make(map[uncertain.TupleID]bool, len(rep.Skyline))
		for _, m := range rep.Skyline {
			cur[m.Tuple.ID] = true
			if m.Prob < q {
				t.Fatalf("q=%v: reported member below threshold", q)
			}
		}
		if prev != nil {
			for id := range cur {
				if !prev[id] {
					t.Fatalf("q=%v: member %d absent from smaller-q answer", q, id)
				}
			}
		}
		prev = cur
	}
}

// With simulated network latency, progressive delivery pays off in the
// time domain: the first answer arrives long before the query completes.
func TestProgressivenessUnderLatency(t *testing.T) {
	parts, _ := makeWorkload(t, 400, 3, 6, gen.Anticorrelated, 15)
	cluster, err := Open(ClusterConfig{Partitions: parts, Dims: 3, Latency: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	rep, err := Run(context.Background(), cluster, Options{Threshold: 0.3, Algorithm: EDSUD})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Progress) < 5 {
		t.Skipf("answer too small for the progressiveness check: %d", len(rep.Progress))
	}
	first := time.Duration(rep.Progress[0].NS)
	if first >= rep.Elapsed/2 {
		t.Errorf("first answer after %v of %v total — progressiveness lost under latency",
			first, rep.Elapsed)
	}
}

// A cluster must be reusable for successive (different) queries: Init
// rebuilds all per-site state.
func TestClusterSequentialQueries(t *testing.T) {
	parts, union := makeWorkload(t, 500, 3, 5, gen.Anticorrelated, 16)
	cluster, err := Open(ClusterConfig{Partitions: parts, Dims: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	queries := []Options{
		{Threshold: 0.3, Algorithm: EDSUD},
		{Threshold: 0.7, Algorithm: DSUD},
		{Threshold: 0.3, Dims: []int{0, 1}, Algorithm: EDSUD},
		{Threshold: 0.3, Algorithm: Baseline},
		{Threshold: 0.5, Algorithm: EDSUD, TopK: 3},
	}
	for i, opts := range queries {
		rep, err := Run(context.Background(), cluster, opts)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		want := union.Skyline(opts.Threshold, opts.Dims)
		if opts.TopK > 0 && len(want) > opts.TopK {
			want = want[:opts.TopK]
		}
		if !uncertain.MembersEqual(rep.Skyline, want, 1e-9) {
			t.Fatalf("query %d: answer diverged (%d vs %d)", i, len(rep.Skyline), len(want))
		}
	}
}

// Scale soak: agreement at a size two orders above the unit tests.
// Skipped under -short.
func TestLargeScaleAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale soak skipped in -short mode")
	}
	parts, union := makeWorkload(t, 200_000, 3, 60, gen.Independent, 17)
	base := runAlgo(t, parts, 3, Options{Threshold: 0.3, Algorithm: Baseline})
	edsud := runAlgo(t, parts, 3, Options{Threshold: 0.3, Algorithm: EDSUD})
	if !uncertain.MembersEqual(base.Skyline, edsud.Skyline, 1e-9) {
		t.Fatalf("large-scale disagreement: baseline %d vs e-DSUD %d",
			len(base.Skyline), len(edsud.Skyline))
	}
	if int64(len(union)) != base.Bandwidth.Tuples() {
		t.Fatalf("baseline bandwidth %d != |D| %d", base.Bandwidth.Tuples(), len(union))
	}
	if edsud.Bandwidth.Tuples()*5 > base.Bandwidth.Tuples() {
		t.Errorf("at paper-like scale e-DSUD should be >5x cheaper: %d vs %d",
			edsud.Bandwidth.Tuples(), base.Bandwidth.Tuples())
	}
	t.Logf("N=200k m=60: |SKY|=%d, baseline %d tuples, e-DSUD %d tuples (%.1fx)",
		len(edsud.Skyline), base.Bandwidth.Tuples(), edsud.Bandwidth.Tuples(),
		float64(base.Bandwidth.Tuples())/float64(edsud.Bandwidth.Tuples()))
}
