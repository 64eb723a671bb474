package prtree

import (
	"container/heap"

	"repro/internal/uncertain"
)

// LocalSkyline computes the probabilistic skyline of the indexed database
// (§6.2): every tuple whose skyline probability (eq. 3) is at least q,
// sorted by descending probability. It follows the BBS discipline — a
// min-heap on the L1 distance of entry rectangles to the origin — and
// prunes a subtree as soon as its best possible skyline probability
//
//	P2(subtree) × Π_{t' ∈ D, t' ≺ rect.Lo} (1 − P(t'))
//
// drops below q. The product is evaluated with a dominance-window query on
// the tree itself, which strictly sharpens the paper's single-feedback-point
// bound while remaining sound: every tuple dominating the subtree's best
// corner dominates each tuple inside it.
func (t *Tree) LocalSkyline(q float64, dims []int) []uncertain.SkylineMember {
	var out []uncertain.SkylineMember
	t.LocalSkylineFunc(q, dims, func(m uncertain.SkylineMember) bool {
		m.Tuple = m.Tuple.Clone()
		out = append(out, m)
		return true
	})
	uncertain.SortMembers(out)
	return out
}

// LocalSkylineFunc streams qualified skyline members in BBS (ascending L1)
// order, which delivers near-origin members first; fn returning false stops
// the search. Members are NOT probability-sorted — callers wanting the
// paper's descending-probability order should collect and sort (as
// LocalSkyline does). Like every visitor of the tree, fn sees the stored
// tuples themselves: a member's Point aliases the tree's storage, which
// is never written in place, so it stays valid after the tuple is
// deleted; callers handing a member to code they do not own clone it.
func (t *Tree) LocalSkylineFunc(q float64, dims []int, fn func(uncertain.SkylineMember) bool) {
	if q <= 0 {
		// q <= 0 qualifies everything; still report exact probabilities.
		t.All(func(tu uncertain.Tuple) bool {
			return fn(uncertain.SkylineMember{Tuple: tu, Prob: t.SkyProb(tu, dims)})
		})
		return
	}

	dims = t.space(dims)
	h := &entryHeap{}
	push := func(n *node, i int) {
		if !t.prunes(n, i, dims, q) {
			heap.Push(h, heapItem{dist: n.rect(i, t.dims).MinDist(dims), e: &n.entries[i]})
		}
	}
	for i := range t.root.entries {
		push(t.root, i)
	}
	for h.Len() > 0 {
		e := heap.Pop(h).(heapItem).e
		if e.child != nil {
			for i := range e.child.entries {
				push(e.child, i)
			}
			continue
		}
		if p := t.bound(e.tuple.Point, e.tuple.ID, dims, e.tuple.Prob, q); p >= q {
			if !fn(uncertain.SkylineMember{Tuple: e.tuple, Prob: p}) {
				return
			}
		}
	}
}

// prunes reports whether no tuple under entry i of n can reach skyline
// probability q on dims, the subtree prune both threshold searches share.
// No tuple can beat its own existential probability (P_sky <= P), so
// pmax < q settles a leaf tuple and a subtree alike without a window
// query. A subtree that survives it is cut when pmax times the survival
// product of its box's lower corner falls below q: every tuple dominating
// that corner dominates each tuple in the box. A leaf tuple that survives
// gets its exact test from the caller.
func (t *Tree) prunes(n *node, i int, dims []int, q float64) bool {
	e := &n.entries[i]
	return e.pmax < q || !n.leaf && t.bound(n.lo[i*t.dims:(i+1)*t.dims], uncertain.NoTuple, dims, e.pmax, q) < q
}

type heapItem struct {
	dist float64
	e    *entry
}

type entryHeap []heapItem

func (h entryHeap) Len() int            { return len(h) }
func (h entryHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h entryHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *entryHeap) Push(x interface{}) { *h = append(*h, x.(heapItem)) }
func (h *entryHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// CertainSkyline returns the skyline of the stored points on dims,
// probabilities ignored and each point once, flat: the coordinates on
// dims (in the order given; nil: every dimension) of one point after
// another. It is a BBS search without a probability bound: entries leave
// a min-heap on their lower corner's coordinate sum, and one is dropped as
// soon as a point already found dominates or equals that corner, since
// then it does so to everything under it. A popped point nothing found
// covers is kept. So every stored point is kept or covered by a kept one
// whatever the order, and the ascending sums, under which a dominator
// pops first, keep the set minimal up to rounding ties.
func (t *Tree) CertainSkyline(dims []int) []float64 {
	dims = t.space(dims)
	if t.size == 0 || len(dims) == 0 {
		return nil
	}
	d, w := t.dims, len(dims)
	var sky []float64
	covered := func(lo []float64) bool {
		for at := 0; at < len(sky); at += w {
			if coversProjected(sky[at:at+w], lo, dims) {
				return true
			}
		}
		return false
	}
	var h cornerHeap
	push := func(n *node) {
		for i := range n.entries {
			lo := n.lo[i*d : (i+1)*d]
			if !covered(lo) {
				sum := 0.0
				for _, j := range dims {
					sum += lo[j]
				}
				heap.Push(&h, corner{sum: sum, n: n, i: i})
			}
		}
	}
	push(t.root)
	for h.Len() > 0 {
		c := heap.Pop(&h).(corner)
		lo := c.n.lo[c.i*d : (c.i+1)*d]
		if covered(lo) {
			continue
		}
		if !c.n.leaf {
			push(c.n.entries[c.i].child)
			continue
		}
		for _, j := range dims {
			sky = append(sky, lo[j])
		}
	}
	return sky
}

// coversProjected reports whether a, a point's coordinates on dims in
// order, dominates or equals the full point b there.
func coversProjected(a, b []float64, dims []int) bool {
	for k, j := range dims {
		if a[k] > b[j] {
			return false
		}
	}
	return true
}

// corner is one entry of CertainSkyline's heap: entry i of n, keyed by the
// coordinate sum of its lower corner.
type corner struct {
	sum float64
	n   *node
	i   int
}

type cornerHeap []corner

func (h cornerHeap) Len() int            { return len(h) }
func (h cornerHeap) Less(i, j int) bool  { return h[i].sum < h[j].sum }
func (h cornerHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *cornerHeap) Push(x interface{}) { *h = append(*h, x.(corner)) }
func (h *cornerHeap) Pop() interface{} {
	old := *h
	c := old[len(old)-1]
	*h = old[:len(old)-1]
	return c
}
