package prtree

import (
	"repro/internal/geom"
	"repro/internal/uncertain"
)

// Insert adds one tuple using the classic Guttman algorithm (least-area-
// enlargement descent, quadratic split) while keeping the corner arrays and
// the probabilistic aggregates fresh along the insertion path.
func (t *Tree) Insert(tu uncertain.Tuple) {
	t.place(leafEntry(tu.Clone()))
	t.size++
}

// place inserts the leaf entry e, growing a new root when the old one split.
func (t *Tree) place(e entry) {
	if split := t.insert(t.root, e); split != nil {
		old := t.root
		t.root = &node{}
		t.root.adopt(old, t.dims)
		t.root.adopt(split, t.dims)
	}
}

// insert places the leaf entry e under n and returns a new sibling node
// when n overflowed and split; the caller is responsible for wiring the
// sibling in.
func (t *Tree) insert(n *node, e entry) *node {
	if n.leaf {
		n.add(e, e.tuple.Point, nil)
	} else {
		best := t.chooseSubtree(n, e.tuple.Point)
		split := t.insert(n.entries[best].child, e)
		n.refresh(best, t.dims)
		if split == nil {
			return nil
		}
		n.adopt(split, t.dims)
	}
	if len(n.entries) > t.max {
		return t.splitNode(n)
	}
	return nil
}

// chooseSubtree picks the child whose rectangle needs least enlargement to
// absorb p, breaking ties by smaller area.
func (t *Tree) chooseSubtree(n *node, p geom.Point) int {
	at := geom.Rect{Lo: p, Hi: p}
	best := 0
	bestGrow := n.rect(0, t.dims).Enlargement(at)
	bestArea := n.rect(0, t.dims).Area()
	for i := 1; i < len(n.entries); i++ {
		grow := n.rect(i, t.dims).Enlargement(at)
		area := n.rect(i, t.dims).Area()
		if grow < bestGrow || (grow == bestGrow && area < bestArea) {
			best, bestGrow, bestArea = i, grow, area
		}
	}
	return best
}

// splitNode divides an overflowing node in place using Guttman's quadratic
// split and returns the newly created sibling.
func (t *Tree) splitNode(n *node) *node {
	d, full := t.dims, *n // full's arrays are only read from here on
	a, b := &node{leaf: n.leaf}, &node{leaf: n.leaf}
	take := func(g *node, i int) {
		r := full.rect(i, d)
		g.add(full.entries[i], r.Lo, r.Hi)
	}
	seedA, seedB := pickSeeds(&full, d)
	take(a, seedA)
	take(b, seedB)
	rectA, rectB := full.rect(seedA, d), full.rect(seedB, d)

	rest := make([]int, 0, len(full.entries)-2)
	for i := range full.entries {
		if i != seedA && i != seedB {
			rest = append(rest, i)
		}
	}

	for len(rest) > 0 {
		// Force assignment when one group must take everything left to
		// reach minimum fill.
		if len(a.entries)+len(rest) == t.min || len(b.entries)+len(rest) == t.min {
			g := a
			if len(a.entries)+len(rest) != t.min {
				g = b
			}
			for _, i := range rest {
				take(g, i)
			}
			break
		}
		// pickNext: the entry with the strongest preference.
		bestIdx, bestDiff := 0, -1.0
		for k, i := range rest {
			r := full.rect(i, d)
			diff := rectA.Enlargement(r) - rectB.Enlargement(r)
			if diff < 0 {
				diff = -diff
			}
			if diff > bestDiff {
				bestIdx, bestDiff = k, diff
			}
		}
		i := rest[bestIdx]
		rest[bestIdx] = rest[len(rest)-1]
		rest = rest[:len(rest)-1]

		r := full.rect(i, d)
		dA := rectA.Enlargement(r)
		dB := rectB.Enlargement(r)
		if dA < dB || !(dB < dA) && len(a.entries) <= len(b.entries) {
			take(a, i)
			rectA = rectA.ExpandRect(r)
		} else {
			take(b, i)
			rectB = rectB.ExpandRect(r)
		}
	}

	*n = *a
	return b
}

// pickSeeds returns the pair of entries whose combined rectangle wastes the
// most area, the quadratic-split seed heuristic.
func pickSeeds(n *node, d int) (int, int) {
	seedA, seedB, worst := 0, 1, -1.0
	for i := 0; i < len(n.entries); i++ {
		for j := i + 1; j < len(n.entries); j++ {
			ri, rj := n.rect(i, d), n.rect(j, d)
			waste := ri.ExpandRect(rj).Area() - ri.Area() - rj.Area()
			if waste > worst {
				seedA, seedB, worst = i, j, waste
			}
		}
	}
	return seedA, seedB
}
