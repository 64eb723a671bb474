package prtree

import (
	"math"
	"sort"

	"repro/internal/uncertain"
)

// Bulk builds a PR-tree over db with Sort-Tile-Recursive packing, the
// standard way to load a large static partition before querying begins.
// Tuples are deep-copied; db is not retained. capacity < 4 selects
// DefaultCapacity.
func Bulk(db uncertain.DB, dims, capacity int) *Tree {
	t := New(dims, capacity)
	if len(db) == 0 {
		return t
	}
	leaves := make([]entry, 0, len(db))
	for _, tu := range db {
		leaves = append(leaves, leafEntry(tu.Clone()))
	}
	strSort(leaves, 0, dims, t.max)

	// Pack leaf nodes, then repeatedly pack the level above until one node
	// remains.
	nodes := t.packLevel(len(leaves), true, func(nd *node, i int) {
		nd.add(leaves[i], leaves[i].tuple.Point, nil)
	})
	for len(nodes) > 1 {
		level := nodes
		nodes = t.packLevel(len(level), false, func(nd *node, i int) { nd.adopt(level[i], dims) })
	}
	t.root = nodes[0]
	t.size = len(db)
	return t
}

// strSort orders leaf entries with the STR tiling recursion: sort by
// dimension dim, slice into vertical slabs sized so each slab fills whole
// nodes, then recurse on the next dimension within each slab.
func strSort(entries []entry, dim, dims, capacity int) {
	sort.Slice(entries, func(i, j int) bool {
		return coord(entries[i], dim) < coord(entries[j], dim)
	})
	if dim >= dims-1 || len(entries) <= capacity {
		return
	}
	nLeaves := int(math.Ceil(float64(len(entries)) / float64(capacity)))
	remDims := float64(dims - dim)
	slabCount := int(math.Ceil(math.Pow(float64(nLeaves), 1/remDims)))
	if slabCount < 1 {
		slabCount = 1
	}
	slabSize := int(math.Ceil(float64(len(entries)) / float64(slabCount)))
	if slabSize < 1 {
		slabSize = 1
	}
	for lo := 0; lo < len(entries); lo += slabSize {
		hi := lo + slabSize
		if hi > len(entries) {
			hi = len(entries)
		}
		strSort(entries[lo:hi], dim+1, dims, capacity)
	}
}

// coord is a leaf entry's coordinate on dim, its STR sort key.
func coord(e entry, dim int) float64 {
	if dim >= len(e.tuple.Point) {
		return 0
	}
	return e.tuple.Point[dim]
}

// packLevel groups count consecutive items into nodes of up to t.max
// entries, spreading the counts evenly so no node violates the minimum fill
// (except a lone root, which is exempt); fill adds item i to its node.
func (t *Tree) packLevel(count int, leaf bool, fill func(nd *node, i int)) []*node {
	nodes := make([]*node, (count+t.max-1)/t.max)
	base, extra := count/len(nodes), count%len(nodes)
	i := 0
	for k := range nodes {
		size := base
		if k < extra {
			size++
		}
		nd := &node{leaf: leaf, entries: make([]entry, 0, size), lo: make([]float64, 0, size*t.dims)}
		if !leaf {
			nd.hi = make([]float64, 0, size*t.dims)
		}
		for end := i + size; i < end; i++ {
			fill(nd, i)
		}
		nodes[k] = nd
	}
	return nodes
}
