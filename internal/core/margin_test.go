package core

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/uncertain"
)

// tightAnswer runs opts over parts and fails unless the answer holds
// the tuple want with exactly the oracle's probability. Both cases below
// set q to that probability, where an Observation-2 bound that is tight
// in real arithmetic rounds one ulp under the fold about as often as
// over it: without the outward margin (uncertain.BoundBelow) the tuple
// was discarded.
func tightAnswer(t *testing.T, parts []uncertain.DB, opts Options, want uncertain.TupleID) {
	t.Helper()
	var s uncertain.Tuple
	for _, part := range parts {
		for _, tu := range part {
			if tu.ID == want {
				s = tu
			}
		}
	}
	p := uncertain.GlobalSkyProb(s, parts, nil)
	if p != opts.Threshold {
		t.Fatalf("the case drifted: tuple %d has P_g-sky %v, q %v", want, p, opts.Threshold)
	}
	rep := runAlgo(t, parts, 2, opts)
	for _, m := range rep.Skyline {
		if m.Tuple.ID == want {
			if m.Prob != p {
				t.Fatalf("%v: tuple %d reported at %v, oracle %v", opts.Algorithm, want, m.Prob, p)
			}
			return
		}
	}
	t.Fatalf("%v (site pruning off: %v): tuple %d with P_g-sky = q = %v is missing from %v",
		opts.Algorithm, opts.DisableSitePruning, want, p, rep.Skyline)
}

// e-DSUD's expunge: t's Corollary-2 factor bounds s's product of factors
// at site 0 tightly (a is t's only dominator there, and s's other one).
func TestExpungeKeepsTightAnswer(t *testing.T) {
	parts := []uncertain.DB{
		{
			{ID: 1, Point: geom.Point{0, 0}, Prob: 0.15066695347072695},
			{ID: 2, Point: geom.Point{1, 1}, Prob: 0.63868673407841814},
		},
		{{ID: 3, Point: geom.Point{2, 2}, Prob: 0.50517130013577105}},
	}
	for _, algo := range []Algorithm{DSUD, EDSUD} {
		tightAnswer(t, parts, Options{Threshold: 0.15502459271281549, Algorithm: algo}, 3)
	}
}

// The site's Observation-2 prune: feedback t from site 0 bounds s at
// site 1 tightly, and s0 keeps s's local probability below its own P.
func TestSitePruneKeepsTightAnswer(t *testing.T) {
	parts := []uncertain.DB{
		{
			{ID: 1, Point: geom.Point{0, 0}, Prob: 0.19384234032576436},
			{ID: 2, Point: geom.Point{1, 1}, Prob: 0.6793489284358456},
		},
		{
			{ID: 3, Point: geom.Point{-1, 10}, Prob: 0.28},
			{ID: 4, Point: geom.Point{2, 2}, Prob: 0.2283256973388062},
		},
	}
	for _, noPrune := range []bool{true, false} {
		tightAnswer(t, parts, Options{Threshold: 0.059021123609695289, Algorithm: DSUD, DisableSitePruning: noPrune}, 4)
	}
}
