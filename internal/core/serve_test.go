package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/transport"
	"repro/internal/uncertain"
)

func newTestServer(t *testing.T, n, d, m int, seed int64, cfg ServeConfig) (*Cluster, *Server) {
	t.Helper()
	return newObservedServer(t, ClusterConfig{}, n, d, m, seed, cfg)
}

// newObservedServer is newTestServer on a cluster with the observers
// observed attaches (its Logger, Metrics, FlightRecorder, TranscriptDir).
// They see the Server's initial round too.
func newObservedServer(t *testing.T, observed ClusterConfig, n, d, m int, seed int64, cfg ServeConfig) (*Cluster, *Server) {
	t.Helper()
	parts, _ := makeWorkload(t, n, d, m, gen.Independent, seed)
	observed.Partitions, observed.Dims = parts, d
	cluster, err := Open(observed)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	server, err := cluster.Serve(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cluster, server
}

// sameAnswer requires identical membership, identical order, and
// P-values within tol — the served read must be indistinguishable from
// the protocol round it replaces.
func sameAnswer(t *testing.T, got, want []uncertain.SkylineMember, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("answer size: got %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Tuple.ID != want[i].Tuple.ID {
			t.Fatalf("delivery order diverged at %d: got tuple %d, want %d", i, got[i].Tuple.ID, want[i].Tuple.ID)
		}
		if diff := got[i].Prob - want[i].Prob; diff > tol || diff < -tol {
			t.Fatalf("P-value diverged for tuple %d: got %v, want %v", got[i].Tuple.ID, got[i].Prob, want[i].Prob)
		}
	}
}

// TestServeMatchesProtocolRound pins the tentpole equivalence: for every
// covered threshold, the materialized read returns the same tuples, the
// same exact P-values and the same delivery order as a fresh protocol
// round — with zero bandwidth and a distinct Source.
func TestServeMatchesProtocolRound(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{7, 21, 99} {
		cluster, server := newTestServer(t, 400, 3, 4, seed, ServeConfig{Floor: 0.2})
		for _, q := range []float64{0.2, 0.3, 0.5, 0.9} {
			opts := Options{Threshold: q, Mode: ModeMaterialized}
			served, err := server.Query(ctx, opts)
			if err != nil {
				t.Fatalf("seed %d q=%v: %v", seed, q, err)
			}
			fresh, err := cluster.Query(ctx, Options{Threshold: q})
			if err != nil {
				t.Fatal(err)
			}
			sameAnswer(t, served.Skyline, fresh.Skyline, 0)
			if served.Source != SourceMaterialized {
				t.Fatalf("served source: got %v", served.Source)
			}
			if fresh.Source != SourceProtocol {
				t.Fatalf("protocol source: got %v", fresh.Source)
			}
			// The home-site provenance must agree too.
			for id, site := range fresh.Sites {
				if served.Sites[id] != site {
					t.Fatalf("tuple %d home site: served %d, protocol %d", id, served.Sites[id], site)
				}
			}
		}
	}
}

// TestServedReportBandwidthZero pins the satellite bugfix: a
// cache-served query ran no protocol traffic, so its report must say so
// instead of inheriting stale meter numbers.
func TestServedReportBandwidthZero(t *testing.T) {
	ctx := context.Background()
	cluster, server := newTestServer(t, 300, 2, 3, 5, ServeConfig{Floor: 0.3})

	rep, err := server.Query(ctx, Options{Threshold: 0.3, Mode: ModeMaterialized})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bandwidth != (transport.Snapshot{}) {
		t.Fatalf("served report bandwidth: got %+v, want zero", rep.Bandwidth)
	}
	if rep.Source != SourceMaterialized {
		t.Fatalf("served report source: got %v", rep.Source)
	}

	// The protocol path keeps reporting its real traffic.
	fresh, err := cluster.Query(ctx, Options{Threshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Bandwidth.TuplesUp == 0 {
		t.Fatal("protocol round reported no shipped tuples")
	}
	if fresh.Source != SourceProtocol {
		t.Fatalf("protocol report source: got %v", fresh.Source)
	}
}

// A materialized read completes through the same path as a protocol
// round, so the per-query sinks see it: one flight record named by the
// read's source and carrying its curve, and a time-to-first-result
// observation — while the query-latency window stays the protocol path's
// (Server.window owns served latency).
func TestServedReadReachesQuerySinks(t *testing.T) {
	ctx := context.Background()
	fr := flight.New(8)
	cluster, server := newObservedServer(t, ClusterConfig{FlightRecorder: fr}, 300, 2, 3, 5, ServeConfig{Floor: 0.3})
	// The Server's initial round is one protocol round: one flight record
	// and one observation in each window.
	query, first := cluster.Windows()
	if fr.Total() != 1 || query.Snapshot().Count != 1 || first.Snapshot().Count != 1 {
		t.Fatalf("after Serve: %d flight records, %d query and %d ttfr observations, want 1 each",
			fr.Total(), query.Snapshot().Count, first.Snapshot().Count)
	}

	rep, err := server.Query(ctx, Options{Threshold: 0.4, Mode: ModeMaterialized})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Skyline) == 0 {
		t.Fatal("served read returned nothing; pick a different seed")
	}
	if fr.Total() != 2 {
		t.Fatalf("flight recorder holds %d records after a served read, want 2", fr.Total())
	}
	if r := fr.Snapshot()[1]; r.Algorithm != "materialized" || r.Results != len(rep.Skyline) || r.Session != 0 || r.QueryID == 0 || r.Messages != 0 {
		t.Errorf("served flight record %+v", r)
	}
	if d := fr.Snapshot()[1].Curve; d == nil || int(d.Results) != len(rep.Skyline) || d.TuplesTotal != 0 {
		t.Errorf("served digest %+v", d)
	}
	if n := first.Snapshot().Count; n != 2 {
		t.Errorf("time-to-first-result window holds %d observations, want 2", n)
	}
	if n := query.Snapshot().Count; n != 1 {
		t.Errorf("query-latency window holds %d observations, want the initial round's 1: a served read is not one", n)
	}
}

// A Server reports on its cluster's registry: with ClusterConfig.Metrics
// set and nothing on the ServeConfig, a covered read lands on
// dsud_serve_hits_total and an insert on dsud_update_applied_total, beside
// the cluster's own series.
func TestServerReportsOnClusterRegistry(t *testing.T) {
	ctx := context.Background()
	reg := obs.NewRegistry()
	cluster, server := newObservedServer(t, ClusterConfig{Metrics: reg}, 300, 2, 3, 5, ServeConfig{Floor: 0.3})
	rep, err := server.Query(ctx, Options{Threshold: 0.4, Mode: ModeMaterialized})
	if err != nil || rep.Source != SourceMaterialized {
		t.Fatalf("covered read: source %v, err %v", rep.Source, err)
	}
	if err := server.Insert(ctx, 1, uncertain.Tuple{ID: 1 << 40, Point: geom.Point{0.01, 0.01}, Prob: 0.9}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("dsud_serve_hits_total").Value(); got != 1 {
		t.Errorf("dsud_serve_hits_total = %d, want 1", got)
	}
	// The store's state and the served reads' latency are gauges beside
	// the counters: the answer's size, floor, freshness and age.
	vars := registryVars(t, reg)
	if vars["dsud_serve_entries"] <= 0 || vars["dsud_serve_floor"] != 0.3 || vars["dsud_serve_fresh"] != 1 ||
		vars["dsud_serve_age_seconds"] < 0 || vars["dsud_serve_age_seconds"] > 60 ||
		vars[`dsud_serve_latency{quantile="0.5"}`] <= 0 {
		t.Errorf("serving gauges: %v", vars)
	}
	if got := reg.Counter("dsud_update_applied_total", "op", "insert").Value(); got != 1 {
		t.Errorf(`dsud_update_applied_total{op="insert"} = %d, want 1`, got)
	}
	// The initial round is the cluster's one protocol query, and every
	// call it and the insert made is counted once.
	if got := reg.Counter("dsud_queries_total", "algorithm", "e-dsud").Value(); got != 1 {
		t.Errorf(`dsud_queries_total{algorithm="e-dsud"} = %d, want 1`, got)
	}
	if got, want := rpcTotal(reg, cluster.Sites(), "ok"), cluster.Meter().Snapshot().Messages; got != want {
		t.Errorf("rpc counters total %d, cluster meter %d messages", got, want)
	}
	server.Invalidate()
	if got := registryVars(t, reg)["dsud_serve_fresh"]; got != 0 {
		t.Errorf("dsud_serve_fresh after Invalidate = %v, want 0", got)
	}
}

// registryVars reads every numeric series of reg, keyed as /vars keys
// them (name{labels}).
func registryVars(t *testing.T, reg *obs.Registry) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	vars := make(map[string]float64, len(raw))
	for k, v := range raw {
		var f float64
		if json.Unmarshal(v, &f) == nil {
			vars[k] = f
		}
	}
	return vars
}

// TestServeProgressiveDelivery pins the synthetic provenance: served
// results stream through OnResult in report order with delivery
// ordinals, home sites and the server-delivery phase, and the report
// carries a per-result progress curve.
func TestServeProgressiveDelivery(t *testing.T) {
	ctx := context.Background()
	_, server := newTestServer(t, 300, 2, 3, 11, ServeConfig{Floor: 0.3})

	var results []Result
	rep, err := server.Query(ctx, Options{
		Threshold: 0.3,
		Mode:      ModeMaterialized,
		OnResult:  func(r Result) { results = append(results, r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(rep.Skyline) || len(rep.Progress) != len(rep.Skyline) {
		t.Fatalf("progressive delivery: %d results, %d progress points, %d members",
			len(results), len(rep.Progress), len(rep.Skyline))
	}
	for i, r := range results {
		if r.Index != i+1 {
			t.Fatalf("delivery ordinal at %d: got %d", i, r.Index)
		}
		if r.Phase != PhaseServerDelivery {
			t.Fatalf("delivery phase: got %v", r.Phase)
		}
		if r.Tuple.ID != rep.Skyline[i].Tuple.ID {
			t.Fatalf("delivery order diverged from report at %d", i)
		}
		if r.Site != rep.Sites[r.Tuple.ID] {
			t.Fatalf("delivered site %d != report site %d", r.Site, rep.Sites[r.Tuple.ID])
		}
	}
	if rep.Curve == nil || int(rep.Curve.Results) != len(rep.Skyline) || rep.Source != SourceMaterialized {
		t.Fatalf("served curve digest: %+v (source %v)", rep.Curve, rep.Source)
	}
}

// TestServeEquivalenceUnderChurn drives a random insert/delete stream
// through the serving tier and checks, at several thresholds, that the
// incrementally maintained materialization still answers exactly like a
// fresh protocol round over the mutated sites — and so do ModeAuto reads
// at descending thresholds below the floor, which resume from it.
func TestServeEquivalenceUnderChurn(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(17))
	parts, union := makeWorkload(t, 200, 2, 3, gen.Independent, 17)
	cluster, err := Open(ClusterConfig{Partitions: parts, Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	server, err := cluster.Serve(ctx, ServeConfig{Floor: 0.2})
	if err != nil {
		t.Fatal(err)
	}

	mirror := make([]uncertain.DB, len(parts))
	for i := range parts {
		mirror[i] = parts[i].Clone()
	}
	nextID := uncertain.TupleID(len(union) + 1)
	for op := 0; op < 80; op++ {
		home := r.Intn(len(mirror))
		if len(mirror[home]) == 0 || r.Float64() < 0.5 {
			p := geom.Point{r.Float64(), r.Float64()}
			if r.Intn(4) == 0 {
				p = geom.Point{0.05 * r.Float64(), 0.05 * r.Float64()}
			}
			tu := uncertain.Tuple{ID: nextID, Point: p, Prob: 0.05 + 0.95*r.Float64()}
			nextID++
			if err := server.Insert(ctx, home, tu); err != nil {
				t.Fatalf("op %d insert: %v", op, err)
			}
			mirror[home] = append(mirror[home], tu)
		} else {
			idx := r.Intn(len(mirror[home]))
			victim := mirror[home][idx]
			mirror[home] = append(mirror[home][:idx], mirror[home][idx+1:]...)
			if err := server.Delete(ctx, home, victim); err != nil {
				t.Fatalf("op %d delete: %v", op, err)
			}
		}
	}

	for _, q := range []float64{0.2, 0.4, 0.7} {
		served, err := server.Query(ctx, Options{Threshold: q, Mode: ModeMaterialized})
		if err != nil {
			t.Fatal(err)
		}
		want := uncertain.Union(mirror).Skyline(q, nil)
		// Incremental rescaling accumulates float drift against a fresh
		// computation (same tolerance the §5.4 maintenance tests use).
		if !uncertain.MembersEqual(served.Skyline, want, 1e-6) {
			t.Fatalf("q=%v: served answer diverged after churn (%d vs %d members)",
				q, len(served.Skyline), len(want))
		}
	}
	for _, q := range []float64{0.19, 0.15, 0.1, 0.05} {
		resumed, err := server.Query(ctx, Options{Threshold: q, Mode: ModeAuto})
		if err != nil {
			t.Fatal(err)
		}
		if resumed.Source != SourceProtocol || resumed.Resumed == 0 {
			t.Fatalf("q=%v: source %v, resumed %d; want a protocol round resumed from the store", q, resumed.Source, resumed.Resumed)
		}
		want := uncertain.Union(mirror).Skyline(q, nil)
		if !uncertain.MembersEqual(resumed.Skyline, want, 1e-6) {
			t.Fatalf("q=%v: resumed answer diverged after churn (%d vs %d members)",
				q, len(resumed.Skyline), len(want))
		}
	}
	if st := server.Stats(); st.Refreshes != 0 {
		t.Fatalf("in-band churn must not trigger refresh rounds, got %d", st.Refreshes)
	}
}

// TestServeResultLimits pins that TopK and MaxResults served reads are
// exact head truncations of the full served order.
func TestServeResultLimits(t *testing.T) {
	ctx := context.Background()
	_, server := newTestServer(t, 300, 2, 3, 23, ServeConfig{Floor: 0.3})

	full, err := server.Query(ctx, Options{Threshold: 0.3, Mode: ModeMaterialized})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Skyline) < 4 {
		t.Fatalf("workload too small for the limit test: %d members", len(full.Skyline))
	}
	topk, err := server.Query(ctx, Options{Threshold: 0.3, Mode: ModeMaterialized, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, topk.Skyline, full.Skyline[:3], 0)
	capped, err := server.Query(ctx, Options{Threshold: 0.3, Mode: ModeMaterialized, MaxResults: 2})
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, capped.Skyline, full.Skyline[:2], 0)
}

// TestModeRouting pins the Mode dispatch matrix across Cluster and
// Server entry points.
func TestModeRouting(t *testing.T) {
	ctx := context.Background()
	cluster, server := newTestServer(t, 300, 2, 3, 31, ServeConfig{Floor: 0.3})

	// A plain cluster cannot serve the materialized modes.
	if _, err := cluster.Query(ctx, Options{Threshold: 0.3, Mode: ModeMaterialized}); !errors.Is(err, ErrNoServer) {
		t.Fatalf("cluster ModeMaterialized: got %v, want ErrNoServer", err)
	}
	if _, err := cluster.Query(ctx, Options{Threshold: 0.3, Mode: ModeAuto}); !errors.Is(err, ErrNoServer) {
		t.Fatalf("cluster ModeAuto: got %v, want ErrNoServer", err)
	}

	// ModeMaterialized below the floor (or off-subspace) is uncovered.
	if _, err := server.Query(ctx, Options{Threshold: 0.1, Mode: ModeMaterialized}); !errors.Is(err, ErrUncovered) {
		t.Fatalf("below-floor materialized: got %v, want ErrUncovered", err)
	}
	if _, err := server.Query(ctx, Options{Threshold: 0.3, Dims: []int{0}, Mode: ModeMaterialized}); !errors.Is(err, ErrUncovered) {
		t.Fatalf("off-subspace materialized: got %v, want ErrUncovered", err)
	}

	// ModeAuto serves when covered and falls back to the protocol when not.
	rep, err := server.Query(ctx, Options{Threshold: 0.5, Mode: ModeAuto})
	if err != nil || rep.Source != SourceMaterialized {
		t.Fatalf("covered auto: source %v, err %v", rep.Source, err)
	}
	rep, err = server.Query(ctx, Options{Threshold: 0.1, Mode: ModeAuto})
	if err != nil || rep.Source != SourceProtocol {
		t.Fatalf("uncovered auto: source %v, err %v", rep.Source, err)
	}
	if rep.Bandwidth.TuplesUp == 0 {
		t.Fatal("protocol fallback must report its real bandwidth")
	}

	// ModeProtocol through the server is a plain round.
	rep, err = server.Query(ctx, Options{Threshold: 0.3, Mode: ModeProtocol})
	if err != nil || rep.Source != SourceProtocol {
		t.Fatalf("server protocol mode: source %v, err %v", rep.Source, err)
	}
}

// TestServeFreshness pins the staleness machinery: Invalidate forces the
// next serving read through a refresh round (SourceRefreshed), after
// which reads are hits again.
func TestServeFreshness(t *testing.T) {
	ctx := context.Background()
	_, server := newTestServer(t, 300, 2, 3, 37, ServeConfig{Floor: 0.3})

	rep, err := server.Query(ctx, Options{Threshold: 0.3, Mode: ModeMaterialized})
	if err != nil || rep.Source != SourceMaterialized {
		t.Fatalf("warm read: source %v, err %v", rep.Source, err)
	}

	server.Invalidate()
	rep, err = server.Query(ctx, Options{Threshold: 0.3, Mode: ModeMaterialized})
	if err != nil || rep.Source != SourceRefreshed {
		t.Fatalf("invalidated read: source %v, err %v", rep.Source, err)
	}
	rep, err = server.Query(ctx, Options{Threshold: 0.3, Mode: ModeMaterialized})
	if err != nil || rep.Source != SourceMaterialized {
		t.Fatalf("post-refresh read: source %v, err %v", rep.Source, err)
	}
	st := server.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Refreshes != 1 {
		t.Fatalf("counters: %+v", st)
	}
}

// TestServeCoalescing proves the singleflight contract end to end: 32
// concurrent compatible queries against an invalidated store perform
// exactly one refresh protocol round between them. The cluster carries
// simulated per-message latency so the round is provably in flight while
// the herd arrives. Run under -race in CI.
func TestServeCoalescing(t *testing.T) {
	ctx := context.Background()
	parts, _ := makeWorkload(t, 200, 2, 3, gen.Independent, 41)
	cluster, err := Open(ClusterConfig{Partitions: parts, Dims: 2, Latency: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	server, err := cluster.Serve(ctx, ServeConfig{Floor: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	server.Invalidate()

	const clients = 32
	var wg sync.WaitGroup
	start := make(chan struct{})
	reports := make([]*Report, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			reports[i], errs[i] = server.Query(ctx, Options{Threshold: 0.3, Mode: ModeMaterialized})
		}(i)
	}
	close(start)
	wg.Wait()

	want := reports[0]
	for i := range reports {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		sameAnswer(t, reports[i].Skyline, want.Skyline, 0)
	}
	st := server.Stats()
	if st.Refreshes != 1 {
		t.Fatalf("%d concurrent queries ran %d refresh rounds, want exactly 1", clients, st.Refreshes)
	}
	if st.Hits+st.Misses != clients {
		t.Fatalf("hits %d + misses %d != %d clients", st.Hits, st.Misses, clients)
	}
	if st.Coalesced != st.Misses-1 {
		t.Fatalf("coalesced %d, want misses-1 = %d", st.Coalesced, st.Misses-1)
	}
}

// TestOptionsValidate pins the exported typed validation errors the
// redesigned API promises callers they can errors.Is against.
func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		want error
	}{
		{"zero threshold", Options{}, ErrThreshold},
		{"threshold above one", Options{Threshold: 1.5}, ErrThreshold},
		{"subspace out of range", Options{Threshold: 0.3, Dims: []int{5}}, ErrSubspace},
		{"unknown algorithm", Options{Threshold: 0.3, Algorithm: Algorithm(99)}, ErrAlgorithm},
		{"unknown policy", Options{Threshold: 0.3, Policy: FeedbackPolicy(99)}, ErrPolicy},
		// Retired numbers fail like ones that never existed: 4 was an
		// algorithm, policies 2 and 3 were max-local and the old
		// round-robin slot before the values were renumbered densely.
		{"retired algorithm", Options{Threshold: 0.3, Algorithm: algorithmEnd}, ErrAlgorithm},
		{"retired policy 2", Options{Threshold: 0.3, Policy: FeedbackPolicy(2)}, ErrPolicy},
		{"retired policy 3", Options{Threshold: 0.3, Policy: FeedbackPolicy(3)}, ErrPolicy},
		// TopK's early exits assume the algorithm's own selection rule and
		// a completed expunge pass; the ablations that break either used
		// to return a wrong top-k silently.
		{"topk with round-robin", Options{Threshold: 0.3, Algorithm: DSUD, TopK: 3, Policy: PolicyRoundRobin}, ErrResultLimit},
		{"topk without expunge", Options{Threshold: 0.3, Algorithm: EDSUD, TopK: 3, DisableExpunge: true}, ErrResultLimit},
		{"negative topk", Options{Threshold: 0.3, TopK: -1}, ErrResultLimit},
		{"exclusive limits", Options{Threshold: 0.3, TopK: 1, MaxResults: 1}, ErrResultLimit},
		{"unknown mode", Options{Threshold: 0.3, Mode: Mode(99)}, ErrMode},
	}
	for _, tc := range cases {
		if err := tc.opts.Validate(2); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
	for _, ok := range []Options{
		{Threshold: 0.3},
		{Threshold: 0.3, TopK: 3, DisableSitePruning: true},
		{Threshold: 0.3, Policy: PolicyRoundRobin, DisableExpunge: true, MaxResults: 3},
	} {
		if err := ok.Validate(2); err != nil {
			t.Errorf("valid options %+v rejected: %v", ok, err)
		}
	}

	// The same validation runs at every entry point, and nil contexts
	// are rejected uniformly.
	parts, _ := makeWorkload(t, 50, 2, 2, gen.Independent, 43)
	cluster, err := Open(ClusterConfig{Partitions: parts, Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if _, err := cluster.Query(context.Background(), Options{Threshold: 2}); !errors.Is(err, ErrThreshold) {
		t.Fatalf("cluster.Query validation: got %v", err)
	}
	if _, err := cluster.Query(nil, Options{Threshold: 0.3}); !errors.Is(err, ErrNilContext) { //nolint:staticcheck
		t.Fatalf("cluster.Query nil ctx: got %v", err)
	}
	server, err := cluster.Serve(context.Background(), ServeConfig{Floor: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.Query(context.Background(), Options{Threshold: 2, Mode: ModeMaterialized}); !errors.Is(err, ErrThreshold) {
		t.Fatalf("server.Query validation: got %v", err)
	}
	if _, err := server.Query(nil, Options{Threshold: 0.3}); !errors.Is(err, ErrNilContext) { //nolint:staticcheck
		t.Fatalf("server.Query nil ctx: got %v", err)
	}
}

// TestServeConfigValidation pins Serve's own input checks.
func TestServeConfigValidation(t *testing.T) {
	parts, _ := makeWorkload(t, 50, 2, 2, gen.Independent, 47)
	cluster, err := Open(ClusterConfig{Partitions: parts, Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	if _, err := cluster.Serve(nil, ServeConfig{Floor: 0.3}); !errors.Is(err, ErrNilContext) { //nolint:staticcheck
		t.Fatalf("nil ctx: got %v", err)
	}
	if _, err := cluster.Serve(context.Background(), ServeConfig{Floor: 0}); !errors.Is(err, ErrThreshold) {
		t.Fatalf("bad floor: got %v", err)
	}
	if _, err := cluster.Serve(context.Background(), ServeConfig{Floor: 0.3, Algorithm: Baseline}); !errors.Is(err, ErrAlgorithm) {
		t.Fatalf("baseline: got %v", err)
	}
}
