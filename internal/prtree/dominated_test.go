package prtree

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/uncertain"
)

// At q = 0 DominatedCandidates reports every tuple p dominates, and the
// window walk's threshold cut never fires: each tuple comes with the bits
// of the exact, uncut SkyProb.
func TestDominatedMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < 40; trial++ {
		d := 1 + r.Intn(3)
		db := randomDB(r, 1+r.Intn(250), d)
		tr := Bulk(db, d, 4+r.Intn(12))
		probe := db[r.Intn(len(db))]
		var dims []int
		if d > 1 && r.Intn(2) == 0 {
			dims = []int{r.Intn(d)}
		}
		want := map[uncertain.TupleID]float64{}
		for _, tu := range db {
			if tu.ID != probe.ID && probe.Point.DominatesIn(tu.Point, dims) {
				want[tu.ID] = tr.SkyProb(tu, dims)
			}
		}
		got := map[uncertain.TupleID]float64{}
		tr.DominatedCandidates(probe.Point, dims, probe.ID, 0, func(m uncertain.SkylineMember) bool {
			got[m.Tuple.ID] = m.Prob
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d dominated, want %d", trial, len(got), len(want))
		}
		for id, w := range want {
			if p, ok := got[id]; !ok || p != w {
				t.Fatalf("trial %d: tuple %d reported %v (found %v), want %v", trial, id, p, ok, w)
			}
		}
	}
}

func TestDominatedEarlyStop(t *testing.T) {
	r := rand.New(rand.NewSource(72))
	db := randomDB(r, 200, 2)
	tr := Bulk(db, 2, 8)
	n := 0
	tr.DominatedCandidates(geom.Point{0, 0}, nil, uncertain.NoTuple, 0, func(uncertain.SkylineMember) bool {
		n++
		return n < 4
	})
	if n != 4 {
		t.Fatalf("visited %d, want early stop at 4", n)
	}
}

func TestDominatedCandidatesMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	for trial := 0; trial < 40; trial++ {
		d := 1 + r.Intn(3)
		db := randomDB(r, 50+r.Intn(250), d)
		tr := Bulk(db, d, 4+r.Intn(12))
		probe := db[r.Intn(len(db))]
		q := []float64{0.1, 0.3, 0.6}[r.Intn(3)]
		var dims []int
		if d > 1 && r.Intn(2) == 0 {
			dims = []int{r.Intn(d)}
		}
		want := map[uncertain.TupleID]float64{}
		for _, tu := range db {
			if tu.ID == probe.ID || !probe.Point.DominatesIn(tu.Point, dims) {
				continue
			}
			if p := db.SkyProb(tu, dims); p >= q {
				want[tu.ID] = p
			}
		}
		got := map[uncertain.TupleID]float64{}
		tr.DominatedCandidates(probe.Point, dims, probe.ID, q, func(m uncertain.SkylineMember) bool {
			got[m.Tuple.ID] = m.Prob
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("trial %d q=%v dims=%v: %d candidates, want %d", trial, q, dims, len(got), len(want))
		}
		for id, w := range want {
			if math.Abs(got[id]-w) > 1e-9 {
				t.Fatalf("trial %d: candidate %d prob %v, want %v", trial, id, got[id], w)
			}
		}
	}
}

func TestDominatedCandidatesZeroThreshold(t *testing.T) {
	r := rand.New(rand.NewSource(74))
	db := randomDB(r, 100, 2)
	tr := Bulk(db, 2, 8)
	probe := geom.Point{0, 0}
	count := 0
	tr.DominatedCandidates(probe, nil, uncertain.NoTuple, 0, func(uncertain.SkylineMember) bool {
		count++
		return true
	})
	want := 0
	for _, tu := range db {
		if probe.Dominates(tu.Point) {
			want++
		}
	}
	if count != want {
		t.Fatalf("q=0 visited %d, want all %d dominated", count, want)
	}
}

func TestDominatedCandidatesEarlyStop(t *testing.T) {
	r := rand.New(rand.NewSource(75))
	db := randomDB(r, 300, 2)
	tr := Bulk(db, 2, 8)
	n := 0
	tr.DominatedCandidates(geom.Point{0, 0}, nil, uncertain.NoTuple, 0.05, func(uncertain.SkylineMember) bool {
		n++
		return n < 2
	})
	if n > 2 {
		t.Fatalf("early stop ignored: visited %d", n)
	}
}

// A tuple whose skyline probability lands exactly on q qualifies, in both
// threshold searches. Tuple 2 at (2,2) has one dominator, tuple 1, and a
// dozen tuples that dominate neither keep the two apart in a tree deep
// enough for the window walks' cut to run. The second case is one where
// q/P(t), the cut a walk might precompute, rounds above the survival
// product that yields q: the walks must compare the caller's own product
// against q instead.
func TestThresholdEdgeIsReported(t *testing.T) {
	for _, c := range []struct{ p, dom float64 }{{0.5, 0.5}, {0.195, 0.626}} {
		q := c.p * (1 - c.dom)
		db := uncertain.DB{
			{ID: 1, Point: geom.Point{1, 1}, Prob: c.dom},
			{ID: 2, Point: geom.Point{2, 2}, Prob: c.p},
		}
		for k := 0; k < 12; k++ {
			x, y := 3+float64(k), 0.1*float64(k)
			if k%2 == 1 {
				x, y = y, x
			}
			db = append(db, uncertain.Tuple{ID: uncertain.TupleID(10 + k), Point: geom.Point{x, y}, Prob: 0.9})
		}
		tr := Bulk(db, 2, 4)
		if tr.Height() < 2 {
			t.Fatalf("tree of height %d: the walks never cut", tr.Height())
		}
		reported := func(q float64) (float64, bool) {
			var prob float64
			found := false
			tr.LocalSkylineFunc(q, nil, func(m uncertain.SkylineMember) bool {
				if m.Tuple.ID == 2 {
					prob, found = m.Prob, true
				}
				return true
			})
			return prob, found
		}
		if got, ok := reported(q); !ok || got != q {
			t.Errorf("P=%v under P=%v: LocalSkylineFunc at q=%v reported tuple 2: %v with %v", c.p, c.dom, q, ok, got)
		}
		if _, ok := reported(math.Nextafter(q, 1)); ok {
			t.Errorf("P=%v under P=%v: LocalSkylineFunc just above q=%v reported tuple 2", c.p, c.dom, q)
		}
		var cand []uncertain.SkylineMember
		tr.DominatedCandidates(db[0].Point, nil, db[0].ID, q, func(m uncertain.SkylineMember) bool {
			cand = append(cand, m)
			return true
		})
		if len(cand) != 1 || cand[0].Tuple.ID != 2 || cand[0].Prob != q {
			t.Errorf("P=%v under P=%v: DominatedCandidates at q=%v reported %v", c.p, c.dom, q, cand)
		}
	}
}
