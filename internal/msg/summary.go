package msg

import (
	"slices"

	"repro/internal/geom"
)

// Summary is a site's certain skyline on a query's subspace: the points of
// its tuples that no other of its tuples dominates there, probabilities
// ignored, each point once. If any tuple of the site dominates t, one of
// these points does, so a site whose summary dominates nothing of t holds
// no dominator of t and its eq. 9 factor for t is exactly 1. A point that
// no longer belongs to the site only makes the test say yes needlessly.
// The engines ask that test of a summary's Index. A summary is a set, so
// its points may come in any order.
type Summary struct {
	// Width is the number of coordinates per point: the subspace's size,
	// or the data's dimensionality for the full space. Zero means the
	// site sent no summary.
	Width int
	// Coords holds the points one after another, each projected onto the
	// subspace's dimensions in ascending order.
	Coords []float64
}

// Len is the number of points in s.
func (s Summary) Len() int {
	if s.Width <= 0 {
		return 0
	}
	return len(s.Coords) / s.Width
}

// Fits reports whether s is a whole summary of width points: the width
// asked for, and whole points. The engines route by nothing else.
func (s Summary) Fits(width int) bool {
	return width > 0 && s.Width == width && len(s.Coords)%width == 0
}

// Project appends to dst the coordinates of p on dims, in order (nil:
// every dimension): p as a summary on that subspace holds its points.
func Project(dst []float64, p geom.Point, dims []int) []float64 {
	if dims == nil {
		return append(dst, p...)
	}
	for _, j := range dims {
		dst = append(dst, p[j])
	}
	return dst
}

// With returns s with p added, for a tuple inserted at the site: s itself
// when a point of s dominates or equals p, otherwise a new summary without
// the points p dominates and with p's projection last. s is never
// written, so a summary a query still routes by stays as it was. Building
// the new set reads every point anyway, so the test for a covering point
// is a pass over them too.
func (s Summary) With(p geom.Point, dims []int) Summary {
	q := Project(nil, p, dims)
	w := s.Width
	for at := 0; w > 0 && at+w <= len(s.Coords); at += w {
		if covers(s.Coords[at:at+w], q) {
			return s
		}
	}
	out := Summary{Width: w, Coords: make([]float64, 0, len(s.Coords)+w)}
	for at := 0; w > 0 && at+w <= len(s.Coords); at += w {
		// No point of s equals q here, so covering one is dominating it.
		if point := s.Coords[at : at+w]; !covers(q, point) {
			out.Coords = append(out.Coords, point...)
		}
	}
	out.Coords = append(out.Coords, q...)
	return out
}

// covers reports whether a is no larger than b on any coordinate.
func covers(a, b []float64) bool {
	for k, v := range a {
		if v > b[k] {
			return false
		}
	}
	return true
}

// Index is a summary with a search tree over its points, by which
// Dominates answers without reading most of them: a KD tree whose leaves
// hold runs of the points, which the Summary holds in leaf order (the same
// set as the summary it was built from). The nodes are flat and in
// preorder: node n holds points [first, end), its component-wise minimum
// is mins[n·w : (n+1)·w], and next is the node past its subtree, so a
// leaf's next is n+1 and an inner node's children are n+1 and the node
// past that one's subtree. An Index is never written once built, so one
// may serve any number of queries at once.
type Index struct {
	Summary
	mins  []float64
	nodes []indexNode
}

type indexNode struct{ first, end, next int32 }

// leafPoints is the most points a leaf holds.
const leafPoints = 8

// Index builds s's index, or returns nil when s does not fit its own width
// (Fits). s is never written.
func (s Summary) Index() *Index {
	if !s.Fits(s.Width) {
		return nil
	}
	w, n := s.Width, s.Len()
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	nodes := nodeCount(n)
	x := &Index{mins: make([]float64, 0, nodes*w), nodes: make([]indexNode, 0, nodes)}
	if n > 0 {
		x.build(s.Coords, w, order, 0, 0)
	}
	x.Summary = Summary{Width: w, Coords: make([]float64, 0, len(s.Coords))}
	for _, i := range order {
		x.Coords = append(x.Coords, s.Coords[int(i)*w:int(i)*w+w]...)
	}
	return x
}

// build appends the subtree over the points order names (indexes into
// coords, which it reorders into leaf order), the first of which lands at
// position first, split on coordinate depth mod w: a leaf takes its
// minimum from its points, an inner node from its two children.
func (x *Index) build(coords []float64, w int, order []int32, first, depth int) {
	n := len(x.nodes)
	x.nodes = append(x.nodes, indexNode{first: int32(first), end: int32(first + len(order))})
	at := len(x.mins)
	x.mins = append(x.mins, coords[int(order[0])*w:int(order[0])*w+w]...)
	if len(order) <= leafPoints {
		lo := x.mins[at:]
		for _, i := range order[1:] {
			for k, v := range coords[int(i)*w : int(i)*w+w] {
				lo[k] = min(lo[k], v)
			}
		}
	} else {
		mid := len(order) / 2
		selectRank(order, mid, coords, w, depth%w)
		x.build(coords, w, order[:mid], first, depth+1)
		right := len(x.nodes)
		x.build(coords, w, order[mid:], first+mid, depth+1)
		lo, l, r := x.mins[at:at+w], x.mins[(n+1)*w:], x.mins[right*w:]
		for k := range lo {
			lo[k] = min(l[k], r[k])
		}
	}
	x.nodes[n].next = int32(len(x.nodes))
}

// nodeCount is how many nodes build makes over n > 0 points.
func nodeCount(n int) int {
	if n <= leafPoints {
		return 1
	}
	return 1 + nodeCount(n/2) + nodeCount(n-n/2)
}

// selectRank reorders the points order names so that order[r] is the one
// of rank r by coordinate k (ties by index), none before it ranking above
// it and none after it below: a quickselect on the middle element. Only
// the tree's balance rests on it, not its answers, since every node's
// minimum is taken over the points it ends up with; so a NaN, which ranks
// inconsistently, costs nothing but balance, and the loop ends whatever
// the order, since each pass narrows [lo, hi].
func selectRank(order []int32, r int, coords []float64, w, k int) {
	lo, hi := 0, len(order)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		order[mid], order[hi] = order[hi], order[mid]
		pivot, p := coords[int(order[hi])*w+k], order[hi]
		at := lo
		for i := lo; i < hi; i++ {
			if v := coords[int(order[i])*w+k]; v < pivot || v == pivot && order[i] < p {
				order[at], order[i] = order[i], order[at]
				at++
			}
		}
		order[at], order[hi] = order[hi], order[at]
		switch {
		case at < r:
			lo = at + 1
		case at > r:
			hi = at - 1
		default:
			return
		}
	}
}

// Dominates reports whether some point of the summary dominates q, a point
// projected as its points are (Project) and of its width. A subtree whose
// minimum does not cover q holds no point that covers q, let alone one
// that dominates it, and the walk skips it; min keeps a NaN coordinate,
// as covers lets one pass, so no subtree that holds a covering point is
// ever skipped.
func (x *Index) Dominates(q []float64) bool {
	w := x.Width
	for n := 0; n < len(x.nodes); {
		node := x.nodes[n]
		if !covers(x.mins[n*w:n*w+w], q) {
			n = int(node.next)
			continue
		}
		if int(node.next) == n+1 { // a leaf
			for at := int(node.first) * w; at < int(node.end)*w; at += w {
				// Points are a set, so at most one equals q: the equality
				// check runs on a hit only.
				if a := x.Coords[at : at+w]; covers(a, q) && !slices.Equal(a, q) {
					return true
				}
			}
		}
		n++
	}
	return false
}
