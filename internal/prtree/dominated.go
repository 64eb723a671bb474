package prtree

import (
	"repro/internal/geom"
	"repro/internal/uncertain"
)

// Dominated visits every stored tuple that p dominates in the subspace
// dims (nil = full space), skipping the tuple with ID self. It is the
// mirror image of Dominators and powers the §5.4 incremental update
// maintenance, which must find the tuples whose skyline probability a
// deleted or inserted tuple affects.
func (t *Tree) Dominated(p geom.Point, dims []int, self uncertain.TupleID, fn func(uncertain.Tuple) bool) {
	t.dominated(p, dims, self, fn)
}

func (t *Tree) dominated(p geom.Point, dims []int, self uncertain.TupleID, fn func(uncertain.Tuple) bool) {
	var walk func(n *node) bool
	walk = func(n *node) bool {
		for i := range n.entries {
			e := &n.entries[i]
			if n.leaf {
				if e.tuple.ID != self && p.DominatesIn(e.tuple.Point, dims) && !fn(e.tuple) {
					return false
				}
				continue
			}
			// A subtree can contain a tuple dominated by p only if p
			// dominates-or-equals the subtree's far (upper) corner
			// projection: every stored point is <= rect.Hi componentwise,
			// so if p exceeds rect.Hi on a compared dimension, p cannot
			// dominate anything inside.
			if p.DominatesOrEqual(e.rect.Hi, dims) && !walk(e.child) {
				return false
			}
		}
		return true
	}
	walk(t.root)
}

// DominatedCandidates visits every stored tuple s that p dominates AND
// whose own skyline probability (eq. 3 against this partition) reaches q,
// reporting each with that probability. It is the workhorse of §5.4
// deletion maintenance: after p is deleted, only such tuples can have been
// promoted into the answer. The search prunes whole subtrees with the same
// sound bound as LocalSkyline — the subtree's maximum existential
// probability times the survival product of its best corner — so the cost
// tracks the (small) number of qualified candidates rather than the (huge)
// number of dominated tuples. Members alias the tree's storage, as in
// LocalSkylineFunc.
func (t *Tree) DominatedCandidates(p geom.Point, dims []int, self uncertain.TupleID, q float64, fn func(uncertain.SkylineMember) bool) {
	if q <= 0 {
		// Degenerate threshold: fall back to the unpruned walk.
		t.dominated(p, dims, self, func(tu uncertain.Tuple) bool {
			return fn(uncertain.SkylineMember{Tuple: tu, Prob: t.SkyProb(tu, dims)})
		})
		return
	}
	var walk func(n *node) bool
	walk = func(n *node) bool {
		for i := range n.entries {
			e := &n.entries[i]
			if n.leaf {
				if e.tuple.ID == self || !p.DominatesIn(e.tuple.Point, dims) {
					continue
				}
				if e.tuple.Prob < q {
					continue // cheap upper bound: P_sky <= P(t)
				}
				if prob := t.SkyProb(e.tuple, dims); prob >= q {
					if !fn(uncertain.SkylineMember{Tuple: e.tuple, Prob: prob}) {
						return false
					}
				}
				continue
			}
			if !p.DominatesOrEqual(e.rect.Hi, dims) {
				continue // nothing inside can be dominated by p
			}
			probe := uncertain.Tuple{ID: uncertain.NoTuple, Point: e.rect.Lo, Prob: 1}
			if e.pmax*t.CrossSkyProb(probe, dims) < q {
				continue // no tuple inside can reach the threshold
			}
			if !walk(e.child) {
				return false
			}
		}
		return true
	}
	walk(t.root)
}
