package prtree

import (
	"repro/internal/geom"
	"repro/internal/uncertain"
)

// Delete removes the tuple with the given ID located at point p. The point
// narrows the search to subtrees whose rectangle contains it, per the
// paper's §5.4 ("a local index is searched according to the traditional
// top-down approach to locate and delete the data item"). Returns
// ErrNotFound when no such tuple exists.
func (t *Tree) Delete(id uncertain.TupleID, p geom.Point) error {
	var orphans []entry
	removed := t.remove(t.root, id, p, &orphans)
	if !removed {
		return ErrNotFound
	}
	t.size--
	// Shrink the root when it lost all children but one interior entry.
	for !t.root.leaf && len(t.root.entries) == 1 {
		t.root = t.root.entries[0].child
	}
	if !t.root.leaf && len(t.root.entries) == 0 {
		t.root = &node{leaf: true}
	}
	// Reinsert entries orphaned by condensed nodes. Leaf-level orphans are
	// whole tuples; deeper orphans are subtrees whose tuples are re-added
	// individually, the simplest correct CondenseTree variant.
	for _, orphan := range orphans {
		t.reinsert(orphan)
	}
	return nil
}

func (t *Tree) reinsert(e entry) {
	if e.child == nil {
		t.place(e)
		return
	}
	for _, c := range e.child.entries {
		t.reinsert(c)
	}
}

// remove deletes the matching leaf entry under n, collecting underfull
// nodes' remaining entries into orphans. It reports whether a tuple was
// removed.
func (t *Tree) remove(n *node, id uncertain.TupleID, p geom.Point, orphans *[]entry) bool {
	d := t.dims
	for i := range n.entries {
		e := &n.entries[i]
		if n.leaf {
			if e.tuple.ID == id && e.tuple.Point.Equal(p) {
				n.drop(i, d)
				return true
			}
			continue
		}
		if !n.rect(i, d).ContainsPoint(p) || !t.remove(e.child, id, p, orphans) {
			continue
		}
		if len(e.child.entries) < t.min {
			// Condense: orphan the whole child and drop it from n.
			*orphans = append(*orphans, e.child.entries...)
			n.drop(i, d)
		} else {
			n.refresh(i, d)
		}
		return true
	}
	return false
}
