package prtree

import (
	"repro/internal/geom"
	"repro/internal/uncertain"
)

// DominatedCandidates visits every stored tuple s that p dominates AND
// whose own skyline probability (eq. 3 against this partition) reaches q,
// reporting each with that probability. It is the workhorse of §5.4
// deletion maintenance: after p is deleted, only such tuples can have been
// promoted into the answer. The search prunes whole subtrees with the same
// sound bound as LocalSkyline — the subtree's maximum existential
// probability times the survival product of its best corner — so the cost
// tracks the (small) number of qualified candidates rather than the (huge)
// number of dominated tuples; at q <= 0 it reports every dominated tuple.
// Members alias the tree's storage, as in LocalSkylineFunc.
func (t *Tree) DominatedCandidates(p geom.Point, dims []int, self uncertain.TupleID, q float64, fn func(uncertain.SkylineMember) bool) {
	if len(p) == t.dims {
		t.candidates(t.root, p, t.space(dims), self, q, fn)
	}
}

// candidates walks n for DominatedCandidates and reports false once fn has
// stopped the walk.
func (t *Tree) candidates(n *node, p []float64, dims []int, self uncertain.TupleID, q float64, fn func(uncertain.SkylineMember) bool) bool {
	d := t.dims
	for i := range n.entries {
		lo, e := n.lo[i*d:(i+1)*d], &n.entries[i]
		if n.leaf {
			if !dominates(p, lo, dims) || e.tuple.ID == self || t.prunes(n, i, dims, q) {
				continue
			}
			if prob := t.bound(lo, e.tuple.ID, dims, e.tuple.Prob, q); prob >= q {
				if !fn(uncertain.SkylineMember{Tuple: e.tuple, Prob: prob}) {
					return false
				}
			}
			continue
		}
		// p dominates nothing in a box whose upper corner it exceeds on a
		// compared dimension.
		if !covers(p, n.hi[i*d:(i+1)*d], dims) || t.prunes(n, i, dims, q) {
			continue
		}
		if !t.candidates(e.child, p, dims, self, q, fn) {
			return false
		}
	}
	return true
}
