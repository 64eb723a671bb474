package prtree

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/uncertain"
)

// At q = 0 DominatedCandidates reports every tuple p dominates.
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
		want := map[uncertain.TupleID]bool{}
		for _, tu := range db {
			if tu.ID != probe.ID && probe.Point.DominatesIn(tu.Point, dims) {
				want[tu.ID] = true
			}
		}
		got := map[uncertain.TupleID]bool{}
		tr.DominatedCandidates(probe.Point, dims, probe.ID, 0, func(m uncertain.SkylineMember) bool {
			got[m.Tuple.ID] = true
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d dominated, want %d", trial, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("trial %d: missing %d", trial, id)
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
