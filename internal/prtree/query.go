package prtree

import "repro/internal/uncertain"

// noDims compares no dimension, so under it nothing dominates anything.
var noDims = []int{}

// space resolves a public call's subspace mask once, so every walk runs one
// loop for the full space and subspaces alike: nil is the tree's full
// space, and a mask naming a dimension the tree lacks compares nothing —
// the fail-closed rule of geom.Point.DominatesIn.
func (t *Tree) space(dims []int) []int {
	if dims == nil {
		return t.ident
	}
	for _, j := range dims {
		if j < 0 || j >= t.dims {
			return noDims
		}
	}
	return dims
}

// dominates reports whether a dominates b on dims: no larger on any, and
// smaller on one. Both hold at least every coordinate dims names, because
// space resolved dims at the public entry; that is why the kernel uses
// these two instead of geom.Point.DominatesIn and DominatesOrEqual, which
// re-check every index and cost the walks about a quarter more time.
func dominates(a, b []float64, dims []int) bool {
	strict := false
	for _, j := range dims {
		if a[j] > b[j] {
			return false
		}
		if a[j] < b[j] {
			strict = true
		}
	}
	return strict
}

// covers reports whether a dominates or equals b on dims.
func covers(a, b []float64, dims []int) bool {
	for _, j := range dims {
		if a[j] > b[j] {
			return false
		}
	}
	return true
}

// CrossSkyProb computes eq. 9 for an arbitrary probe tuple against the
// indexed database: Π over stored dominators of probe (excluding any stored
// tuple sharing probe's ID) of (1 − P). Subtrees that lie entirely inside
// the dominance region contribute their pre-aggregated product without
// being expanded, which is what makes the feedback evaluation at local
// sites (§6.3) sublinear in practice. A probe of another dimensionality
// has no dominators here.
func (t *Tree) CrossSkyProb(probe uncertain.Tuple, dims []int) float64 {
	if len(probe.Point) != t.dims {
		return 1
	}
	return t.cross(t.root, probe.Point, probe.ID, t.space(dims), 1, 0, 1)
}

// bound is scale × the eq. 9 product of p against the tree (dominators
// other than id, on the resolved mask dims) when that value reaches q, and
// some value below q when it does not: the threshold searches' one
// question. A value that reaches q is the same float a full walk gives.
func (t *Tree) bound(p []float64, id uncertain.TupleID, dims []int, scale, q float64) float64 {
	return scale * t.cross(t.root, p, id, dims, scale, q, 1)
}

// cross is the dominance-window kernel under every search of the tree: it
// multiplies into prob the (1 − P) of each tuple under n, other than id,
// that dominates p on the resolved mask dims, and returns the product. It
// decides from n's corner arrays alone and multiplies in depth-first entry
// order. A box whose lower corner does not dominate-or-equal p holds no
// dominator; one whose upper corner dominates p holds nothing else, so its
// cached product applies (p itself cannot be inside: nothing dominates
// itself).
//
// A caller that only compares scale × product against q passes both, and
// the walk returns −1 as soon as scale × prob < q after an interior
// entry's factor: a covered box's cached product or a finished child.
// Every factor lies in [0, 1] and rounding is monotone, so no later factor
// can lift the caller's own expression back to q: the cut changes no
// decision, and a walk that is not cut multiplies exactly as before. Exact
// callers pass q = 0, which never fires. The test is the caller's
// expression itself, not prob < q/scale, whose rounding could drop a value
// landing on q. A leaf, once entered, is finished: testing after each of
// its factors as well cost the exact callers about 7 %.
func (t *Tree) cross(n *node, p []float64, id uncertain.TupleID, dims []int, scale, q, prob float64) float64 {
	d := t.dims
	if n.leaf {
		for i := range n.entries {
			if dominates(n.lo[i*d:(i+1)*d], p, dims) && n.entries[i].tuple.ID != id {
				prob *= n.entries[i].prodInv
			}
		}
		return prob
	}
	for i := range n.entries {
		if !covers(n.lo[i*d:(i+1)*d], p, dims) {
			continue
		}
		if e := &n.entries[i]; dominates(n.hi[i*d:(i+1)*d], p, dims) {
			prob *= e.prodInv
		} else {
			prob = t.cross(e.child, p, id, dims, scale, q, prob)
		}
		if scale*prob < q {
			return -1
		}
	}
	return prob
}

// SkyProb computes eq. 3 for probe against the indexed database:
// P(probe) × CrossSkyProb(probe).
func (t *Tree) SkyProb(probe uncertain.Tuple, dims []int) float64 {
	return probe.Prob * t.CrossSkyProb(probe, dims)
}
