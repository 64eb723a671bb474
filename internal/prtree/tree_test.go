package prtree

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/uncertain"
)

func randomDB(r *rand.Rand, n, d int) uncertain.DB {
	db := make(uncertain.DB, n)
	for i := range db {
		p := make(geom.Point, d)
		for j := range p {
			p[j] = math.Round(r.Float64()*100) / 10 // coarse grid forces ties
		}
		db[i] = uncertain.Tuple{ID: uncertain.TupleID(i + 1), Point: p, Prob: 0.05 + 0.95*r.Float64()}
	}
	return db
}

func buildBoth(t *testing.T, db uncertain.DB, d, capacity int) (bulk, incr *Tree) {
	t.Helper()
	bulk = Bulk(db, d, capacity)
	incr = New(d, capacity)
	for _, tu := range db {
		incr.Insert(tu)
	}
	for _, tree := range []*Tree{bulk, incr} {
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("invariants: %v", err)
		}
		if tree.Len() != len(db) {
			t.Fatalf("Len = %d, want %d", tree.Len(), len(db))
		}
	}
	return bulk, incr
}

func TestEmptyTree(t *testing.T) {
	tr := New(2, 8)
	if tr.Len() != 0 {
		t.Fatal("new tree must be empty")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := tr.LocalSkyline(0.3, nil); len(got) != 0 {
		t.Fatalf("skyline of empty tree = %v", got)
	}
	if got := tr.CrossSkyProb(uncertain.Tuple{ID: 1, Point: geom.Point{1, 1}, Prob: 0.5}, nil); got != 1 {
		t.Fatalf("CrossSkyProb on empty tree = %v, want 1", got)
	}
	if err := tr.Delete(1, geom.Point{1, 1}); err != ErrNotFound {
		t.Fatalf("Delete on empty tree = %v, want ErrNotFound", err)
	}
	bulk := Bulk(nil, 2, 8)
	if bulk.Len() != 0 {
		t.Fatal("bulk of nil must be empty")
	}
}

func TestCrossSkyProbMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		d := 1 + r.Intn(3)
		db := randomDB(r, 1+r.Intn(250), d)
		bulk, incr := buildBoth(t, db, d, 4+r.Intn(12))
		var dims []int
		if d > 1 && r.Intn(2) == 0 {
			dims = []int{r.Intn(d)}
		}
		// Probe both member tuples and foreign tuples.
		probes := []uncertain.Tuple{
			db[r.Intn(len(db))],
			{ID: uncertain.NoTuple, Point: randomDB(r, 1, d)[0].Point, Prob: 0.5},
		}
		for _, probe := range probes {
			want := db.CrossSkyProb(probe, dims)
			for name, tr := range map[string]*Tree{"bulk": bulk, "incr": incr} {
				got := tr.CrossSkyProb(probe, dims)
				if math.Abs(got-want) > 1e-9 {
					t.Fatalf("%s trial %d: CrossSkyProb = %v, want %v", name, trial, got, want)
				}
				gotSky := tr.SkyProb(probe, dims)
				if math.Abs(gotSky-probe.Prob*want) > 1e-9 {
					t.Fatalf("%s trial %d: SkyProb = %v, want %v", name, trial, gotSky, probe.Prob*want)
				}
			}
		}
	}
}

func TestLocalSkylineMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		d := 1 + r.Intn(4)
		db := randomDB(r, 1+r.Intn(300), d)
		bulk, incr := buildBoth(t, db, d, 4+r.Intn(12))
		q := []float64{0.1, 0.3, 0.5, 0.9}[r.Intn(4)]
		var dims []int
		if d > 2 && r.Intn(2) == 0 {
			dims = []int{0, 1}
		}
		want := db.Skyline(q, dims)
		for name, tr := range map[string]*Tree{"bulk": bulk, "incr": incr} {
			got := tr.LocalSkyline(q, dims)
			if !uncertain.MembersEqual(got, want, 1e-9) {
				t.Fatalf("%s trial %d q=%v dims=%v: skyline mismatch\n got %v\nwant %v",
					name, trial, q, dims, got, want)
			}
		}
	}
}

func TestLocalSkylineStreamOrder(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	db := randomDB(r, 200, 2)
	tr := Bulk(db, 2, 8)
	var last float64 = -1
	count := 0
	tr.LocalSkylineFunc(0.2, nil, func(m uncertain.SkylineMember) bool {
		l1 := m.Tuple.Point.L1()
		if l1 < last {
			t.Fatalf("stream not in ascending L1 order: %v after %v", l1, last)
		}
		last = l1
		count++
		return true
	})
	if count != len(db.Skyline(0.2, nil)) {
		t.Fatalf("streamed %d members, want %d", count, len(db.Skyline(0.2, nil)))
	}
	// Early stop must be honoured.
	stopped := 0
	tr.LocalSkylineFunc(0.2, nil, func(uncertain.SkylineMember) bool {
		stopped++
		return stopped < 3
	})
	if stopped != 3 {
		t.Fatalf("early stop streamed %d, want 3", stopped)
	}
}

func TestLocalSkylineZeroThresholdReportsAll(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	db := randomDB(r, 50, 2)
	tr := Bulk(db, 2, 8)
	got := tr.LocalSkyline(0, nil)
	if len(got) != len(db) {
		t.Fatalf("q=0 must report all %d tuples, got %d", len(db), len(got))
	}
	for _, m := range got {
		want := db.SkyProb(m.Tuple, nil)
		if math.Abs(m.Prob-want) > 1e-9 {
			t.Fatalf("q=0 member prob %v, want %v", m.Prob, want)
		}
	}
}

func TestDeleteThenQueriesStayCorrect(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		d := 1 + r.Intn(3)
		db := randomDB(r, 40+r.Intn(160), d)
		tr := Bulk(db, d, 4+r.Intn(8))
		live := db.Clone()
		// Delete a random half, one by one, checking invariants as we go.
		deletions := len(live) / 2
		for k := 0; k < deletions; k++ {
			i := r.Intn(len(live))
			victim := live[i]
			live = append(live[:i], live[i+1:]...)
			if err := tr.Delete(victim.ID, victim.Point); err != nil {
				t.Fatalf("trial %d: delete %v: %v", trial, victim, err)
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("trial %d after delete: %v", trial, err)
			}
		}
		if tr.Len() != len(live) {
			t.Fatalf("Len = %d, want %d", tr.Len(), len(live))
		}
		got := tr.LocalSkyline(0.3, nil)
		want := live.Skyline(0.3, nil)
		if !uncertain.MembersEqual(got, want, 1e-9) {
			t.Fatalf("trial %d: post-delete skyline mismatch", trial)
		}
	}
}

func TestDeleteMissingTuple(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	db := randomDB(r, 30, 2)
	tr := Bulk(db, 2, 8)
	if err := tr.Delete(9999, geom.Point{1, 1}); err != ErrNotFound {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	// Right ID, wrong location: must also be not-found.
	if err := tr.Delete(db[0].ID, geom.Point{-1, -1}); err != ErrNotFound {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if tr.Len() != len(db) {
		t.Fatal("failed delete must not change size")
	}
}

func TestInterleavedInsertDeleteInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	tr := New(3, 6)
	var live uncertain.DB
	nextID := uncertain.TupleID(1)
	for op := 0; op < 1500; op++ {
		if len(live) == 0 || r.Float64() < 0.6 {
			tu := uncertain.Tuple{
				ID:    nextID,
				Point: geom.Point{r.Float64() * 10, r.Float64() * 10, r.Float64() * 10},
				Prob:  0.05 + 0.95*r.Float64(),
			}
			nextID++
			tr.Insert(tu)
			live = append(live, tu)
		} else {
			i := r.Intn(len(live))
			victim := live[i]
			live = append(live[:i], live[i+1:]...)
			if err := tr.Delete(victim.ID, victim.Point); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
		if op%100 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got := tr.LocalSkyline(0.3, nil)
	want := live.Skyline(0.3, nil)
	if !uncertain.MembersEqual(got, want, 1e-9) {
		t.Fatal("skyline mismatch after interleaved workload")
	}
}

func TestAllEarlyStop(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	tr := Bulk(randomDB(r, 100, 2), 2, 8)
	n := 0
	tr.All(func(uncertain.Tuple) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("All visited %d, want 5", n)
	}
}

func TestBulkMatchesIncrementalSkyline(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	db := randomDB(r, 500, 3)
	bulk := Bulk(db, 3, 16)
	incr := New(3, 16)
	for _, tu := range db {
		incr.Insert(tu)
	}
	a := bulk.LocalSkyline(0.3, nil)
	b := incr.LocalSkyline(0.3, nil)
	if !uncertain.MembersEqual(a, b, 1e-9) {
		t.Fatal("bulk and incremental trees disagree")
	}
}

// The whole-subtree shortcut multiplies in an interior entry's cached
// Π(1−P), so a stale one would skew every eq. 9 factor: CheckInvariants
// compares it exactly.
func TestCheckInvariantsCatchesStaleProduct(t *testing.T) {
	tr := Bulk(randomDB(rand.New(rand.NewSource(12)), 500, 3), 3, 8)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	e := &tr.root.entries[0].child.entries[1]
	e.prodInv = math.Nextafter(e.prodInv, 2)
	if err := tr.CheckInvariants(); err == nil {
		t.Fatal("an interior prodInv one ulp off passed CheckInvariants")
	}
}

// Every window query decides from the flat corner arrays alone, so each
// must equal what its entries say: a leaf's points, a child's bounding box.
func TestCheckInvariantsCatchesStaleCorner(t *testing.T) {
	for name, corrupt := range map[string]func(tr *Tree){
		"leaf point": func(tr *Tree) {
			n := tr.root
			for !n.leaf {
				n = n.entries[0].child
			}
			n.lo[4] += 0.5
		},
		"interior upper corner": func(tr *Tree) { tr.root.hi[2] += 0.5 },
	} {
		tr := Bulk(randomDB(rand.New(rand.NewSource(13)), 500, 3), 3, 8)
		corrupt(tr)
		if err := tr.CheckInvariants(); err == nil {
			t.Errorf("%s: a corrupted corner passed CheckInvariants", name)
		}
	}
}

// The window queries under every Evaluate and every delete allocate
// nothing.
func TestWindowQueriesDoNotAllocate(t *testing.T) {
	db := randomDB(rand.New(rand.NewSource(14)), 2000, 3)
	tr := Bulk(db, 3, 0)
	visit := func(uncertain.SkylineMember) bool { return true }
	for _, dims := range [][]int{nil, {0, 2}} {
		i := 0
		if a := testing.AllocsPerRun(200, func() {
			tr.CrossSkyProb(db[i%len(db)], dims)
			i++
		}); a != 0 {
			t.Errorf("dims %v: CrossSkyProb allocates %v per call", dims, a)
		}
		if a := testing.AllocsPerRun(50, func() {
			p := db[i%len(db)]
			tr.DominatedCandidates(p.Point, dims, p.ID, 0.3, visit)
			i++
		}); a != 0 {
			t.Errorf("dims %v: DominatedCandidates allocates %v per call", dims, a)
		}
	}
}

// A mask naming a dimension the tree lacks, or a probe of another
// dimensionality, compares nothing: no dominators, no candidates, no panic.
func TestMalformedMaskComparesNothing(t *testing.T) {
	db := randomDB(rand.New(rand.NewSource(15)), 300, 2)
	tr := Bulk(db, 2, 8)
	origin := uncertain.Tuple{ID: uncertain.NoTuple, Point: geom.Point{0, 0}}
	for _, dims := range [][]int{{2}, {-1}, {0, 5}, {}} {
		if got := tr.CrossSkyProb(db[0], dims); got != 1 {
			t.Errorf("dims %v: CrossSkyProb = %v, want 1", dims, got)
		}
		tr.DominatedCandidates(origin.Point, dims, origin.ID, 0.1, func(m uncertain.SkylineMember) bool {
			t.Errorf("dims %v: candidate %v", dims, m.Tuple)
			return false
		})
	}
	if got := tr.CrossSkyProb(uncertain.Tuple{Point: geom.Point{9, 9, 9}, Prob: 1}, nil); got != 1 {
		t.Errorf("3-d probe of a 2-d tree: CrossSkyProb = %v, want 1", got)
	}
	tr.DominatedCandidates(geom.Point{0}, nil, uncertain.NoTuple, 0.1, func(m uncertain.SkylineMember) bool {
		t.Errorf("1-d probe of a 2-d tree: candidate %v", m.Tuple)
		return false
	})
}

func TestCapacityFallback(t *testing.T) {
	tr := New(2, 1)
	if tr.max != DefaultCapacity {
		t.Fatalf("capacity fallback = %d, want %d", tr.max, DefaultCapacity)
	}
}

// CertainSkyline is the set of points no other stored point dominates on
// the subspace, each once, whichever way the tree was built and after
// deletes; randomDB's coarse grid makes ties and duplicate points common.
func TestCertainSkylineMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < 30; trial++ {
		d := 2 + r.Intn(3)
		db := randomDB(r, 1+r.Intn(300), d)
		bulk, incr := buildBoth(t, db, d, 4+r.Intn(6))
		live := db
		if trial%3 == 0 {
			for _, tu := range db[:len(db)/2] {
				if err := incr.Delete(tu.ID, tu.Point); err != nil {
					t.Fatal(err)
				}
			}
			live = db[len(db)/2:]
		}
		for _, dims := range [][]int{nil, {d - 1, 0}, {1}} {
			want := map[string]bool{}
			for _, tu := range live {
				dominated := false
				for _, o := range live {
					dominated = dominated || o.Point.DominatesIn(tu.Point, dims)
				}
				if !dominated {
					want[projected(tu.Point, dims).String()] = true
				}
			}
			for name, tree := range map[string]*Tree{"bulk": bulk, "incremental": incr} {
				if name == "bulk" && len(live) != len(db) {
					continue
				}
				got := map[string]bool{}
				flat, w := tree.CertainSkyline(dims), len(dims)
				if dims == nil {
					w = d
				}
				for at := 0; at < len(flat); at += w {
					key := geom.Point(flat[at : at+w]).String()
					if got[key] {
						t.Fatalf("trial %d %s dims %v: point %s twice", trial, name, dims, key)
					}
					got[key] = true
				}
				if len(got) != len(want) {
					t.Fatalf("trial %d %s dims %v: %d points, brute force %d", trial, name, dims, len(got), len(want))
				}
				for key := range want {
					if !got[key] {
						t.Fatalf("trial %d %s dims %v: missing %s", trial, name, dims, key)
					}
				}
			}
		}
	}
}

// projected is p's coordinates on dims, in the order given (nil: all).
func projected(p geom.Point, dims []int) geom.Point {
	if dims == nil {
		return p
	}
	out := make(geom.Point, len(dims))
	for k, j := range dims {
		out[k] = p[j]
	}
	return out
}
