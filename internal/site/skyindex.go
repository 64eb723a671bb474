package site

import (
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/prtree"
	"repro/internal/uncertain"
)

// skyIndex is the maintained local skyline SKY(D_i) of one dominance
// subspace: every stored tuple whose local skyline probability (eq. 3)
// reaches floor, with that probability, in the protocol's report order
// (uncertain.CompareMembers). A query with threshold q >= floor is the
// prefix of members with Prob >= q, so Init costs a binary search and a
// copy rather than a PR-tree search, and the §5.4 promotion candidates
// of a tuple deleted elsewhere are a filter of the same prefix.
//
// floor is the lowest threshold anyone has asked of the subspace. It only
// descends: a lower q rebuilds the index with the one cold search that
// request would have needed anyway, a higher q never raises it. The
// site's own update path keeps the members exact (inserted, deleted), so
// nothing ever invalidates an index.
//
// Memory: at most |D_i| members of 48 bytes, and members alias the
// PR-tree's stored points (which are never written in place) instead of
// copying them; only what a response ships is cloned. An engine keeps at
// most maxSkyIndexes subspaces, most recently read first, and an update
// maintains only the first and drops the rest — their next Init pays one
// cold search — so an update never costs more than one index whatever
// subspaces were queried before it.
type skyIndex struct {
	dims    []int // nil = full space; matched as written, not as a set
	floor   float64
	members []uncertain.SkylineMember
}

// maxSkyIndexes bounds the indexes an engine holds between updates.
const maxSkyIndexes = 8

// localSkyline returns SKY(D_i) at threshold q in the subspace dims, in
// report order, from that subspace's index — building it, or rebuilding
// it at a lower floor, when q is not covered — and marks the index most
// recently read. The result aliases the index: callers copy what they
// keep or ship. Caller holds e.mu.
func (e *Engine) localSkyline(q float64, dims []int) []uncertain.SkylineMember {
	at := slices.IndexFunc(e.sky, func(ix skyIndex) bool { return slices.Equal(ix.dims, dims) })
	var hot skyIndex
	if at >= 0 {
		hot = e.sky[at]
	} else {
		hot = skyIndex{dims: slices.Clone(dims), floor: math.Inf(1)}
		if len(e.sky) < maxSkyIndexes {
			e.sky = append(e.sky, skyIndex{})
		}
		at = len(e.sky) - 1 // when full, the least recently read makes room
	}
	copy(e.sky[1:at+1], e.sky[:at])
	if q < hot.floor {
		hot.build(e.index, q)
		e.obsSkyBuilds.Inc()
	}
	e.sky[0] = hot
	cut := uncertain.PrefixCut(len(hot.members), q, func(i int) float64 { return hot.members[i].Prob })
	return hot.members[:cut]
}

// build runs the cold search: the threshold BBS search of the PR-tree at
// the new floor q. The index outlives every query, so it keeps an
// exact-size copy of what the search collected, not append's slack.
func (ix *skyIndex) build(tree *prtree.Tree, q float64) {
	var found []uncertain.SkylineMember
	tree.LocalSkylineFunc(q, ix.dims, func(m uncertain.SkylineMember) bool {
		found = append(found, m)
		return true
	})
	uncertain.SortMembers(found)
	ix.floor, ix.members = q, slices.Clone(found)
}

// hotSkyIndex drops every index but the most recently read and returns
// that one for the update in progress to maintain (nil when no subspace
// has been queried yet). Caller holds e.mu.
func (e *Engine) hotSkyIndex() *skyIndex {
	if len(e.sky) == 0 {
		return nil
	}
	clear(e.sky[1:])
	e.sky = e.sky[:1]
	return &e.sky[0]
}

// inserted folds tu, just added to the tree with local skyline
// probability local in the index's subspace, into the members: the ones
// tu dominates lose the factor 1 − P(tu) of eq. 3 and leave when that
// takes them below the floor, nobody else's probability moves, and tu
// itself enters at its rank when it qualifies. In place: nothing is
// allocated unless tu qualifies, and then only its copy (the request owns
// tu's point) and, now and then, room for one more member.
func (ix *skyIndex) inserted(tu uncertain.Tuple, local float64) {
	kept, moved := ix.members[:0], false
	for _, m := range ix.members {
		if tu.Dominates(m.Tuple, ix.dims) {
			if m.Prob *= 1 - tu.Prob; m.Prob < ix.floor {
				continue
			}
			moved = true
		}
		kept = append(kept, m)
	}
	if moved {
		// The rescaled members kept their order among themselves and so
		// did the rest: two interleaved runs, cheap to sort.
		uncertain.SortMembers(kept)
	}
	if local >= ix.floor {
		m := uncertain.SkylineMember{Tuple: tu.Clone(), Prob: local}
		at, _ := slices.BinarySearchFunc(kept, m, uncertain.CompareMembers)
		kept = slices.Insert(kept, at, m)
	}
	ix.members = kept
}

// deleted folds the removal of tuple id at point p, already out of the
// tree, into the members: it leaves, the members it dominated get their
// factor back and tuples it alone kept below the floor are promoted. One
// DominatedCandidates search at the floor finds both groups with fresh
// probabilities, so nothing is divided by 1 − P(t) (which may be zero).
func (ix *skyIndex) deleted(tree *prtree.Tree, id uncertain.TupleID, p geom.Point) {
	kept := ix.members[:0]
	for _, m := range ix.members {
		if m.Tuple.ID != id && !p.DominatesIn(m.Tuple.Point, ix.dims) {
			kept = append(kept, m)
		}
	}
	undominated := len(kept)
	tree.DominatedCandidates(p, ix.dims, id, ix.floor, func(m uncertain.SkylineMember) bool {
		kept = append(kept, m)
		return true
	})
	if len(kept) > undominated {
		uncertain.SortMembers(kept)
	}
	ix.members = kept
}
