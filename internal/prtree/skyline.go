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
		// No tuple below e can beat its own existential probability
		// (P_sky <= P(t)), so pmax < q settles a leaf tuple and a subtree
		// alike without a window query. Surviving subtrees get the
		// sharper threshold prune, surviving leaf tuples the exact test.
		e, r := &n.entries[i], n.rect(i, t.dims)
		if e.pmax < q || e.child != nil && e.pmax*t.cross(t.root, r.Lo, uncertain.NoTuple, dims, 1) < q {
			return
		}
		heap.Push(h, heapItem{dist: r.MinDist(dims), e: e})
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
		if p := e.tuple.Prob * t.cross(t.root, e.tuple.Point, e.tuple.ID, dims, 1); p >= q {
			if !fn(uncertain.SkylineMember{Tuple: e.tuple, Prob: p}) {
				return
			}
		}
	}
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
