package prtree

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/uncertain"
)

// FuzzTreeOperations drives a PR-tree with a byte-coded operation script
// (2 bits op, 6 bits value per byte) and checks structural invariants and
// oracle agreement after every script: the local skyline, and every window
// query it drives (CrossSkyProb of each tuple, DominatedCandidates around
// the origin and a spread of tuples) in the full space and in subspace {1}.
func FuzzTreeOperations(f *testing.F) {
	f.Add([]byte{0x01, 0x42, 0x83, 0xC4, 0x05, 0x46})
	f.Add([]byte{0xFF, 0x00, 0xAA, 0x55})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 512 {
			script = script[:512]
		}
		tr := New(2, 5)
		var live uncertain.DB
		nextID := uncertain.TupleID(1)
		for _, b := range script {
			op := b >> 6
			v := float64(b & 0x3F)
			switch {
			case op <= 1 || len(live) == 0: // insert (biased)
				tu := uncertain.Tuple{
					ID:    nextID,
					Point: geom.Point{v, float64((b * 7) & 0x3F)},
					Prob:  0.1 + float64(b%9)/10,
				}
				nextID++
				tr.Insert(tu)
				live = append(live, tu)
			case op == 2: // delete existing
				i := int(b) % len(live)
				victim := live[i]
				live = append(live[:i], live[i+1:]...)
				if err := tr.Delete(victim.ID, victim.Point); err != nil {
					t.Fatalf("delete live tuple: %v", err)
				}
			default: // delete missing must not corrupt
				if err := tr.Delete(uncertain.TupleID(1_000_000+int(b)), geom.Point{v, v}); err != ErrNotFound {
					t.Fatalf("deleting missing tuple: %v", err)
				}
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("invariants after script: %v", err)
		}
		if tr.Len() != len(live) {
			t.Fatalf("Len %d, want %d", tr.Len(), len(live))
		}
		got := tr.LocalSkyline(0.3, nil)
		want := live.Skyline(0.3, nil)
		if !uncertain.MembersEqual(got, want, 1e-9) {
			t.Fatalf("skyline mismatch: %d vs %d", len(got), len(want))
		}
		for _, dims := range [][]int{nil, {1}} {
			for _, tu := range live {
				if got, want := tr.CrossSkyProb(tu, dims), live.CrossSkyProb(tu, dims); math.Abs(got-want) > 1e-9 {
					t.Fatalf("dims %v: CrossSkyProb(%v) = %v, want %v", dims, tu, got, want)
				}
			}
			probes := []uncertain.Tuple{{ID: uncertain.NoTuple, Point: geom.Point{0, 0}}}
			for i := 0; i < len(live); i += 1 + len(live)/8 {
				probes = append(probes, live[i])
			}
			for _, p := range probes {
				checkCandidates(t, tr, live, p, dims)
			}
		}
	})
}

// checkCandidates compares DominatedCandidates at q = 0.3 with brute force
// over live, skipping tuples whose exact probability is too close to q for
// two product orders to agree on which side it falls.
func checkCandidates(t *testing.T, tr *Tree, live uncertain.DB, p uncertain.Tuple, dims []int) {
	const q = 0.3
	got := map[uncertain.TupleID]float64{}
	tr.DominatedCandidates(p.Point, dims, p.ID, q, func(m uncertain.SkylineMember) bool {
		got[m.Tuple.ID] = m.Prob
		return true
	})
	dominated := 0
	for _, tu := range live {
		if tu.ID == p.ID || !p.Point.DominatesIn(tu.Point, dims) {
			continue
		}
		dominated++
		want := live.SkyProb(tu, dims)
		prob, ok := got[tu.ID]
		switch {
		case math.Abs(want-q) <= 1e-9:
		case ok != (want >= q):
			t.Fatalf("dims %v probe %v: candidate %v reported %v, exact P_sky %v", dims, p, tu, ok, want)
		case ok && math.Abs(prob-want) > 1e-9:
			t.Fatalf("dims %v probe %v: candidate %v prob %v, want %v", dims, p, tu, prob, want)
		}
	}
	if len(got) > dominated {
		t.Fatalf("dims %v probe %v: %d candidates but only %d dominated tuples", dims, p, len(got), dominated)
	}
}
