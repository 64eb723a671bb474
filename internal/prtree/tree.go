// Package prtree implements the Probabilistic R-tree of the paper's §6.1: a
// dynamic R-tree over uncertain tuples whose directory entries additionally
// carry the minimum and maximum existential probability of their subtree
// (P1/P2 in the paper) plus the aggregated product Π(1−P(t)) used to
// accelerate dominance-window probability queries (§6.3) and threshold-aware
// local skyline search (§6.2, BBS-style).
package prtree

import (
	"errors"
	"fmt"

	"repro/internal/geom"
	"repro/internal/uncertain"
)

// DefaultCapacity is the default maximum node fan-out. Forty-ish entries per
// node is the classic disk-page sizing; it also performs well in memory.
const DefaultCapacity = 32

// ErrNotFound reports a Delete for a tuple the tree does not contain.
var ErrNotFound = errors.New("prtree: tuple not found")

// Tree is a probabilistic R-tree. The zero value is not usable; construct
// with New or Bulk. Tree is not safe for concurrent mutation; concurrent
// read-only queries are safe. Every stored point has Dims coordinates.
type Tree struct {
	dims  int
	ident []int // 0, 1, …, dims−1: the full space as a subspace mask
	max   int   // node capacity M
	min   int   // minimum fill m
	root  *node
	size  int
}

// node is one R-tree node. Leaf nodes carry tuple entries; interior nodes
// carry child entries. Entry i's geometry lives in the node's flat corner
// arrays at [i·d, (i+1)·d): lo holds the lower corners, which in a leaf are
// the points themselves, packed contiguously, and hi the upper corners of
// an interior node's children (a leaf has none: a point is its own upper
// corner). Every window query reads these arrays and nothing else to decide
// dominance.
type node struct {
	leaf    bool
	entries []entry
	lo, hi  []float64
}

// entry is one slot of a node: either a child pointer with aggregates
// (interior) or a tuple (leaf).
type entry struct {
	child *node           // interior entries only
	tuple uncertain.Tuple // leaf entries only

	// Aggregates over the subtree (for a leaf entry, over the single
	// tuple): the paper's P1/P2 plus the Π(1−P) product and tuple count.
	pmin    float64
	pmax    float64
	prodInv float64 // Π over subtree of (1 − P(t))
	count   int
}

// New returns an empty PR-tree for points of dimensionality dims with node
// capacity cap (cap < 4 falls back to DefaultCapacity).
func New(dims, capacity int) *Tree {
	if capacity < 4 {
		capacity = DefaultCapacity
	}
	ident := make([]int, dims)
	for j := range ident {
		ident[j] = j
	}
	return &Tree{
		dims:  dims,
		ident: ident,
		max:   capacity,
		min:   capacity * 2 / 5, // 40% minimum fill, the R*-tree default
		root:  &node{leaf: true},
	}
}

// Dims returns the dimensionality the tree indexes.
func (t *Tree) Dims() int { return t.dims }

// Len returns the number of tuples stored.
func (t *Tree) Len() int { return t.size }

// Height returns the tree's height in levels (1 = a single leaf root).
// Leaf depth is uniform (CheckInvariants enforces it), so walking the
// first child at each level suffices.
func (t *Tree) Height() int {
	h := 0
	for n := t.root; n != nil; {
		h++
		if n.leaf || len(n.entries) == 0 {
			break
		}
		n = n.entries[0].child
	}
	return h
}

// leafEntry builds the entry wrapping one tuple.
func leafEntry(tu uncertain.Tuple) entry {
	return entry{tuple: tu, pmin: tu.Prob, pmax: tu.Prob, prodInv: 1 - tu.Prob, count: 1}
}

// upper is n's upper-corner array: a leaf's points are their own.
func (n *node) upper() []float64 {
	if n.leaf {
		return n.lo
	}
	return n.hi
}

// rect is entry i's bounding box, a view into n's corner arrays.
func (n *node) rect(i, d int) geom.Rect {
	return geom.Rect{Lo: n.lo[i*d : (i+1)*d], Hi: n.upper()[i*d : (i+1)*d]}
}

// add appends e with its corners (a leaf ignores hi).
func (n *node) add(e entry, lo, hi []float64) {
	n.entries = append(n.entries, e)
	n.lo = append(n.lo, lo...)
	if !n.leaf {
		n.hi = append(n.hi, hi...)
	}
}

// drop removes entry i in place, keeping the order of the rest.
func (n *node) drop(i, d int) {
	n.entries = append(n.entries[:i], n.entries[i+1:]...)
	n.lo = append(n.lo[:i*d], n.lo[(i+1)*d:]...)
	if !n.leaf {
		n.hi = append(n.hi[:i*d], n.hi[(i+1)*d:]...)
	}
}

// adopt appends the non-empty node c as a child of interior node n.
func (n *node) adopt(c *node, d int) {
	n.add(entry{child: c}, c.lo[:d], c.upper()[:d])
	n.refresh(len(n.entries)-1, d)
}

// refresh recomputes interior entry i's corners and aggregates from its
// child, in place.
func (n *node) refresh(i, d int) {
	n.entries[i] = summarize(n.entries[i].child, d, n.lo[i*d:(i+1)*d], n.hi[i*d:(i+1)*d])
}

// summarize returns the interior entry wrapping the non-empty node c and
// writes c's bounding box into lo and hi. The product multiplies in entry
// order, so the same entries always give the same bits.
func summarize(c *node, d int, lo, hi []float64) entry {
	e := entry{child: c, pmin: 1, prodInv: 1}
	up := c.upper()
	copy(lo, c.lo[:d])
	copy(hi, up[:d])
	for i := range c.entries {
		for j := 0; j < d; j++ {
			lo[j] = min(lo[j], c.lo[i*d+j])
			hi[j] = max(hi[j], up[i*d+j])
		}
		ce := &c.entries[i]
		e.pmin = min(e.pmin, ce.pmin)
		e.pmax = max(e.pmax, ce.pmax)
		e.prodInv *= ce.prodInv
		e.count += ce.count
	}
	return e
}

// CheckInvariants validates structural invariants: every node's corner
// arrays hold its entries' corners (a leaf's points; each child's bounding
// box), aggregates — the Π(1−P) product included — match recomputation
// exactly, leaf depth is uniform, and node occupancy respects capacity. It
// exists for tests.
func (t *Tree) CheckInvariants() error {
	if t.root == nil {
		return errors.New("prtree: nil root")
	}
	_, err := t.check(t.root, true)
	if err != nil {
		return err
	}
	n := wrapCount(t.root)
	if n != t.size {
		return fmt.Errorf("prtree: size %d but %d tuples reachable", t.size, n)
	}
	return nil
}

func wrapCount(n *node) int {
	if n.leaf {
		return len(n.entries)
	}
	total := 0
	for i := range n.entries {
		total += wrapCount(n.entries[i].child)
	}
	return total
}

func (t *Tree) check(n *node, isRoot bool) (depth int, err error) {
	d := t.dims
	if len(n.entries) > t.max {
		return 0, fmt.Errorf("prtree: node with %d entries exceeds capacity %d", len(n.entries), t.max)
	}
	if !isRoot && len(n.entries) < t.min {
		return 0, fmt.Errorf("prtree: underfull non-root node (%d < %d)", len(n.entries), t.min)
	}
	if want := len(n.entries) * d; len(n.lo) != want || len(n.upper()) != want {
		return 0, fmt.Errorf("prtree: %d entries but %d lower and %d upper coordinates", len(n.entries), len(n.lo), len(n.upper()))
	}
	if n.leaf {
		for i := range n.entries {
			e := &n.entries[i]
			if e.child != nil {
				return 0, errors.New("prtree: leaf entry with child pointer")
			}
			if lo := n.rect(i, d).Lo; !lo.Equal(e.tuple.Point) {
				return 0, fmt.Errorf("prtree: leaf corner %v mismatches tuple %v", lo, e.tuple)
			}
		}
		return 1, nil
	}
	if len(n.entries) == 0 {
		return 0, errors.New("prtree: empty interior node")
	}
	childDepth := -1
	lo, hi := make(geom.Point, d), make(geom.Point, d)
	for i := range n.entries {
		e := &n.entries[i]
		if e.child == nil {
			return 0, errors.New("prtree: interior entry without child")
		}
		cd, err := t.check(e.child, false)
		if err != nil {
			return 0, err
		}
		fresh := summarize(e.child, d, lo, hi)
		if r := n.rect(i, d); !r.Lo.Equal(lo) || !r.Hi.Equal(hi) {
			return 0, fmt.Errorf("prtree: stale corners: have %v want %v", r, geom.Rect{Lo: lo, Hi: hi})
		}
		if fresh.count != e.count || fresh.pmin != e.pmin || fresh.pmax != e.pmax || fresh.prodInv != e.prodInv {
			return 0, fmt.Errorf("prtree: stale aggregates (count %d/%d pmin %v/%v pmax %v/%v prodInv %v/%v)",
				e.count, fresh.count, e.pmin, fresh.pmin, e.pmax, fresh.pmax, e.prodInv, fresh.prodInv)
		}
		if childDepth == -1 {
			childDepth = cd
		} else if childDepth != cd {
			return 0, errors.New("prtree: leaves at different depths")
		}
	}
	return childDepth + 1, nil
}

// All visits every tuple in the tree in unspecified order; fn returning
// false stops the walk early.
func (t *Tree) All(fn func(uncertain.Tuple) bool) {
	var walk func(n *node) bool
	walk = func(n *node) bool {
		for i := range n.entries {
			e := &n.entries[i]
			if n.leaf {
				if !fn(e.tuple) {
					return false
				}
			} else if !walk(e.child) {
				return false
			}
		}
		return true
	}
	walk(t.root)
}
