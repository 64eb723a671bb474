package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/uncertain"
)

// trackedCluster pairs a cluster with a mirror of the live global database
// so tests can brute-force the expected answer after every update.
type trackedCluster struct {
	cluster *Cluster
	parts   []uncertain.DB
	nextID  uncertain.TupleID
}

func newTrackedCluster(t *testing.T, n, d, m int, seed int64) *trackedCluster {
	t.Helper()
	return newMeteredTrackedCluster(t, nil, n, d, m, seed)
}

// newMeteredTrackedCluster is newTrackedCluster on a cluster instrumented
// against reg (ClusterConfig.Metrics), which its Servers report on too.
func newMeteredTrackedCluster(t *testing.T, reg *obs.Registry, n, d, m int, seed int64) *trackedCluster {
	t.Helper()
	parts, union := makeWorkload(t, n, d, m, gen.Independent, seed)
	cluster, err := Open(ClusterConfig{Partitions: parts, Dims: d, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	mirror := make([]uncertain.DB, len(parts))
	for i := range parts {
		mirror[i] = parts[i].Clone()
	}
	return &trackedCluster{
		cluster: cluster,
		parts:   mirror,
		nextID:  uncertain.TupleID(len(union) + 1),
	}
}

func (tc *trackedCluster) union() uncertain.DB { return uncertain.Union(tc.parts) }

func TestMaintainerInitialAnswerMatchesOracle(t *testing.T) {
	tc := newTrackedCluster(t, 400, 3, 5, 42)
	m, err := tc.cluster.Serve(context.Background(), ServeConfig{Floor: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	want := tc.union().Skyline(0.3, nil)
	if !uncertain.MembersEqual(m.Skyline(), want, 1e-9) {
		t.Fatalf("initial answer mismatch: %d vs %d", len(m.Skyline()), len(want))
	}
}

// The crucial §5.4 property: after any stream of random inserts and
// deletes, the incrementally maintained answer equals a from-scratch
// recomputation.
func TestIncrementalMaintenanceMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	ctx := context.Background()
	for trial := 0; trial < 6; trial++ {
		d := 2 + r.Intn(2)
		mSites := 2 + r.Intn(5)
		tc := newTrackedCluster(t, 150, d, mSites, r.Int63())
		q := []float64{0.2, 0.3, 0.5}[r.Intn(3)]
		maint, err := tc.cluster.Serve(ctx, ServeConfig{Floor: q})
		if err != nil {
			t.Fatal(err)
		}
		for op := 0; op < 60; op++ {
			home := r.Intn(mSites)
			if len(tc.parts[home]) == 0 || r.Float64() < 0.5 {
				// Insert — occasionally a very dominant tuple to force
				// evictions, occasionally a dominated one.
				p := make(geom.Point, d)
				scale := 1.0
				if r.Intn(4) == 0 {
					scale = 0.05 // near-origin, dominates plenty
				}
				for j := range p {
					p[j] = scale * r.Float64()
				}
				tu := uncertain.Tuple{ID: tc.nextID, Point: p, Prob: 0.05 + 0.95*r.Float64()}
				tc.nextID++
				if err := maint.Insert(ctx, home, tu); err != nil {
					t.Fatalf("trial %d op %d insert: %v", trial, op, err)
				}
				tc.parts[home] = append(tc.parts[home], tu)
			} else {
				idx := r.Intn(len(tc.parts[home]))
				victim := tc.parts[home][idx]
				tc.parts[home] = append(tc.parts[home][:idx], tc.parts[home][idx+1:]...)
				if err := maint.Delete(ctx, home, victim); err != nil {
					t.Fatalf("trial %d op %d delete: %v", trial, op, err)
				}
			}
			if op%10 == 9 {
				want := tc.union().Skyline(q, nil)
				if !uncertain.MembersEqual(maint.Skyline(), want, 1e-6) {
					t.Fatalf("trial %d op %d (q=%v): incremental answer diverged (%d vs %d)",
						trial, op, q, len(maint.Skyline()), len(want))
				}
			}
		}
		// Final check plus agreement with the naive strategy.
		want := tc.union().Skyline(q, nil)
		if !uncertain.MembersEqual(maint.Skyline(), want, 1e-6) {
			t.Fatalf("trial %d: final incremental answer diverged", trial)
		}
		if err := maint.Refresh(ctx); err != nil {
			t.Fatal(err)
		}
		if !uncertain.MembersEqual(maint.Skyline(), want, 1e-9) {
			t.Fatalf("trial %d: naive refresh diverged from oracle", trial)
		}
	}
}

func TestMaintainerSubspace(t *testing.T) {
	ctx := context.Background()
	tc := newTrackedCluster(t, 200, 3, 4, 44)
	dims := []int{0, 2}
	maint, err := tc.cluster.Serve(ctx, ServeConfig{Floor: 0.3, Dims: dims})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(45))
	for op := 0; op < 30; op++ {
		home := r.Intn(4)
		if len(tc.parts[home]) == 0 || r.Float64() < 0.5 {
			tu := uncertain.Tuple{
				ID:    tc.nextID,
				Point: geom.Point{r.Float64(), r.Float64(), r.Float64()},
				Prob:  0.05 + 0.95*r.Float64(),
			}
			tc.nextID++
			if err := maint.Insert(ctx, home, tu); err != nil {
				t.Fatal(err)
			}
			tc.parts[home] = append(tc.parts[home], tu)
		} else {
			idx := r.Intn(len(tc.parts[home]))
			victim := tc.parts[home][idx]
			tc.parts[home] = append(tc.parts[home][:idx], tc.parts[home][idx+1:]...)
			if err := maint.Delete(ctx, home, victim); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := tc.union().Skyline(0.3, dims)
	if !uncertain.MembersEqual(maint.Skyline(), want, 1e-6) {
		t.Fatalf("subspace incremental answer diverged (%d vs %d)", len(maint.Skyline()), len(want))
	}
}

func TestMaintainerBadSiteIndex(t *testing.T) {
	ctx := context.Background()
	tc := newTrackedCluster(t, 40, 2, 2, 46)
	maint, err := tc.cluster.Serve(ctx, ServeConfig{Floor: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	tu := uncertain.Tuple{ID: 9999, Point: geom.Point{0.5, 0.5}, Prob: 0.5}
	if err := maint.Insert(ctx, -1, tu); err == nil {
		t.Error("negative site index must fail")
	}
	if err := maint.Insert(ctx, 7, tu); err == nil {
		t.Error("out-of-range site index must fail")
	}
	if err := maint.Delete(ctx, 7, tu); err == nil {
		t.Error("out-of-range delete must fail")
	}
	if err := maint.Delete(ctx, 0, tu); err == nil {
		t.Error("deleting a missing tuple must surface the site error")
	}
	if err := maint.ApplyNaive(ctx, 9, true, tu); err == nil {
		t.Error("out-of-range ApplyNaive must fail")
	}
}

func TestApplyNaivePlusRefreshMatchesOracle(t *testing.T) {
	ctx := context.Background()
	tc := newTrackedCluster(t, 150, 2, 3, 47)
	maint, err := tc.cluster.Serve(ctx, ServeConfig{Floor: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(48))
	for op := 0; op < 20; op++ {
		home := r.Intn(3)
		if len(tc.parts[home]) == 0 || r.Float64() < 0.5 {
			tu := uncertain.Tuple{
				ID:    tc.nextID,
				Point: geom.Point{r.Float64(), r.Float64()},
				Prob:  0.05 + 0.95*r.Float64(),
			}
			tc.nextID++
			if err := maint.ApplyNaive(ctx, home, true, tu); err != nil {
				t.Fatal(err)
			}
			tc.parts[home] = append(tc.parts[home], tu)
		} else {
			idx := r.Intn(len(tc.parts[home]))
			victim := tc.parts[home][idx]
			tc.parts[home] = append(tc.parts[home][:idx], tc.parts[home][idx+1:]...)
			if err := maint.ApplyNaive(ctx, home, false, victim); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := maint.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	want := tc.union().Skyline(0.3, nil)
	if !uncertain.MembersEqual(maint.Skyline(), want, 1e-9) {
		t.Fatalf("naive strategy diverged (%d vs %d)", len(maint.Skyline()), len(want))
	}
}

// TestApplyNaiveThenInsertRefreshesFirst: ApplyNaive changes a site
// behind the incremental path's back, so the next incremental update must
// Refresh before it edits the answer. Here the naive insert n dominates
// the one member, d, and pushes it below q; an update that edited the
// stale answer would keep d and never learn of n.
func TestApplyNaiveThenInsertRefreshesFirst(t *testing.T) {
	ctx := context.Background()
	cluster, err := Open(ClusterConfig{Partitions: waveParts(), Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	maint, err := cluster.Serve(ctx, ServeConfig{Floor: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	live := uncertain.Union(waveParts())
	if members := maint.Skyline(); len(members) != 1 || members[0].Tuple.ID != waveD.ID {
		t.Fatalf("initial answer %v, want d alone", members)
	}
	n := uncertain.Tuple{ID: 9, Point: geom.Point{0.05, 0.05}, Prob: 0.9}
	if err := maint.ApplyNaive(ctx, 1, true, n); err != nil {
		t.Fatal(err)
	}
	if err := maint.Insert(ctx, 2, waveF); err != nil {
		t.Fatal(err)
	}
	live = append(live, n, waveF)
	if want := live.Skyline(0.3, nil); !uncertain.MembersEqual(maint.Skyline(), want, 1e-12) {
		t.Fatalf("answer %v, oracle %v", maint.Skyline(), want)
	}
}

// Replicated maintenance (§5.4's SKY(H) duplication) must stay exact and
// must veto hopeless inserts without the evaluation broadcast.
func TestReplicatedMaintenanceMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(49))
	ctx := context.Background()
	tc := newTrackedCluster(t, 200, 2, 4, 50)
	maint, err := tc.cluster.Serve(ctx, ServeConfig{Floor: 0.3, Replicate: true})
	if err != nil {
		t.Fatal(err)
	}
	for op := 0; op < 80; op++ {
		home := r.Intn(4)
		if len(tc.parts[home]) == 0 || r.Float64() < 0.55 {
			tu := uncertain.Tuple{
				ID:    tc.nextID,
				Point: geom.Point{r.Float64(), r.Float64()},
				Prob:  0.05 + 0.95*r.Float64(),
			}
			tc.nextID++
			if err := maint.Insert(ctx, home, tu); err != nil {
				t.Fatal(err)
			}
			tc.parts[home] = append(tc.parts[home], tu)
		} else {
			idx := r.Intn(len(tc.parts[home]))
			victim := tc.parts[home][idx]
			tc.parts[home] = append(tc.parts[home][:idx], tc.parts[home][idx+1:]...)
			if err := maint.Delete(ctx, home, victim); err != nil {
				t.Fatal(err)
			}
		}
		if op%20 == 19 {
			want := tc.union().Skyline(0.3, nil)
			if !uncertain.MembersEqual(maint.Skyline(), want, 1e-6) {
				t.Fatalf("op %d: replicated answer diverged (%d vs %d)",
					op, len(maint.Skyline()), len(want))
			}
		}
	}
	// Refresh keeps replicas coherent too.
	if err := maint.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	want := tc.union().Skyline(0.3, nil)
	if !uncertain.MembersEqual(maint.Skyline(), want, 1e-9) {
		t.Fatal("post-refresh replicated answer diverged")
	}
}

// The update path's counters and latency window, registered on the
// cluster's ClusterConfig.Metrics, must tally every applied operation, and
// a Server on a cluster without Metrics must keep applying updates
// untouched.
func TestMaintainerInstrumentation(t *testing.T) {
	ctx := context.Background()
	reg := obs.NewRegistry()
	tc := newMeteredTrackedCluster(t, reg, 200, 2, 3, 51)
	maint, err := tc.cluster.Serve(ctx, ServeConfig{Floor: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	// bare takes the same updates over a copy of the same data.
	bare, err := newTrackedCluster(t, 200, 2, 3, 51).cluster.Serve(ctx, ServeConfig{Floor: 0.3})
	if err != nil {
		t.Fatal(err)
	}

	r := rand.New(rand.NewSource(52))
	inserts, deletes := 0, 0
	for op := 0; op < 40; op++ {
		home := r.Intn(3)
		if len(tc.parts[home]) == 0 || r.Float64() < 0.5 {
			scale := 1.0
			if r.Intn(3) == 0 {
				scale = 0.05 // dominant: forces re-scoring and evictions
			}
			tu := uncertain.Tuple{
				ID:    tc.nextID,
				Point: geom.Point{scale * r.Float64(), scale * r.Float64()},
				Prob:  0.05 + 0.95*r.Float64(),
			}
			tc.nextID++
			for _, s := range []*Server{maint, bare} {
				if err := s.Insert(ctx, home, tu); err != nil {
					t.Fatal(err)
				}
			}
			tc.parts[home] = append(tc.parts[home], tu)
			inserts++
		} else {
			idx := r.Intn(len(tc.parts[home]))
			victim := tc.parts[home][idx]
			tc.parts[home] = append(tc.parts[home][:idx], tc.parts[home][idx+1:]...)
			for _, s := range []*Server{maint, bare} {
				if err := s.Delete(ctx, home, victim); err != nil {
					t.Fatal(err)
				}
			}
			deletes++
		}
	}
	// Registry.Counter returns the already-registered series.
	if got := reg.Counter("dsud_update_applied_total", "op", "insert").Value(); got != int64(inserts) {
		t.Errorf("applied{insert} = %d, want %d", got, inserts)
	}
	if got := reg.Counter("dsud_update_applied_total", "op", "delete").Value(); got != int64(deletes) {
		t.Errorf("applied{delete} = %d, want %d", got, deletes)
	}
	if got := reg.Counter("dsud_update_errors_total", "op", "insert").Value() +
		reg.Counter("dsud_update_errors_total", "op", "delete").Value(); got != 0 {
		t.Errorf("errors = %d, want 0", got)
	}
	// 40 mixed updates against a 200-tuple cluster with occasional
	// dominators must have touched the answer set.
	if reg.Counter("dsud_update_rescored_total").Value() == 0 {
		t.Error("rescored counter never moved")
	}
	if reg.Counter("dsud_update_affected_total").Value() == 0 {
		t.Error("affected counter never moved")
	}
	var text strings.Builder
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("\ndsud_update_latency_seconds_count %d\n", inserts+deletes); !strings.Contains(text.String(), want) {
		t.Errorf("latency window: no %q in\n%s", want[1:len(want)-1], text.String())
	}

	// A failed update lands in errors, not applied.
	bad := uncertain.Tuple{ID: 999999, Point: geom.Point{0.5, 0.5}, Prob: 0.5}
	if err := maint.Delete(ctx, 0, bad); err == nil {
		t.Fatal("deleting a missing tuple must fail")
	}
	if got := reg.Counter("dsud_update_errors_total", "op", "delete").Value(); got != 1 {
		t.Errorf("errors{delete} = %d, want 1", got)
	}

	// Neither the instrumented run nor the bare one may have perturbed
	// correctness.
	want := tc.union().Skyline(0.3, nil)
	if !uncertain.MembersEqual(maint.Skyline(), want, 1e-6) {
		t.Fatal("instrumented incremental answer diverged from oracle")
	}
	if bare.instr != nil || !uncertain.MembersEqual(bare.Skyline(), want, 1e-6) {
		t.Fatal("uninstrumented incremental answer diverged from oracle")
	}
}

// The replica filter must actually save broadcasts: insert a tuple that
// looks locally viable but is globally dominated by a replica member from
// another site.
func TestReplicaVetoesHopelessInsert(t *testing.T) {
	ctx := context.Background()
	// Site 0 holds a strong dominator; site 1 is empty, so anything
	// inserted there looks locally perfect.
	parts := []uncertain.DB{
		{{ID: 1, Point: geom.Point{0.1, 0.1}, Prob: 0.95}},
		{},
	}
	cluster, err := Open(ClusterConfig{Partitions: parts, Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	maint, err := cluster.Serve(ctx, ServeConfig{Floor: 0.3, Replicate: true})
	if err != nil {
		t.Fatal(err)
	}
	before := cluster.Meter().Snapshot()
	victim := uncertain.Tuple{ID: 100, Point: geom.Point{0.5, 0.5}, Prob: 0.9}
	if err := maint.Insert(ctx, 1, victim); err != nil {
		t.Fatal(err)
	}
	delta := cluster.Meter().Snapshot().Sub(before)
	// One insert message down; NO evaluate broadcast (which would cost
	// another tuple down) because the replica veto fired.
	if delta.TuplesDown != 1 {
		t.Fatalf("insert moved %d tuples down, want 1 (veto should skip the broadcast)", delta.TuplesDown)
	}
	for _, mem := range maint.Skyline() {
		if mem.Tuple.ID == victim.ID {
			t.Fatal("hopeless insert must not join the skyline")
		}
	}
}

// TestReplicaVetoCountsHomeDominatorsOnce: a member homed at the insert's
// own site already shapes its local probability, so the veto must not
// take that member's factor a second time. Here the local probability
// 0.45 is the global one and reaches q; counting a twice would bound it
// at 0.225 and veto a qualifying tuple.
func TestReplicaVetoCountsHomeDominatorsOnce(t *testing.T) {
	ctx := context.Background()
	a := uncertain.Tuple{ID: 1, Point: geom.Point{0.1, 0.1}, Prob: 0.5}
	parts := []uncertain.DB{{a}, {}}
	cluster, err := Open(ClusterConfig{Partitions: parts, Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	maint, err := cluster.Serve(ctx, ServeConfig{Floor: 0.3, Replicate: true})
	if err != nil {
		t.Fatal(err)
	}
	u := uncertain.Tuple{ID: 2, Point: geom.Point{0.5, 0.5}, Prob: 0.9}
	if err := maint.Insert(ctx, 0, u); err != nil {
		t.Fatal(err)
	}
	live := uncertain.DB{a, u}
	if want := live.Skyline(0.3, nil); !uncertain.MembersEqual(maint.Skyline(), want, 1e-12) {
		t.Fatalf("answer %v, oracle %v", maint.Skyline(), want)
	}
}
