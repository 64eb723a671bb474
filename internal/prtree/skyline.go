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
