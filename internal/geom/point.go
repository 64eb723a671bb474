// Package geom provides the geometric kernel shared by the skyline engine:
// multidimensional points, Pareto dominance tests (over the full space and
// over user-selected subspaces), and axis-aligned rectangles with the
// operations needed by R-tree construction. The PR-tree's dominance-window
// queries run on its own flat corner arrays instead.
//
// Throughout this module, smaller coordinate values are preferred, matching
// the paper's convention: point a dominates point b when a is no larger than
// b in every dimension and strictly smaller in at least one.
package geom

import (
	"fmt"
	"math"
	"strings"
)

// Point is a location in d-dimensional space. The zero-length Point is valid
// but dominates nothing and is dominated by nothing.
type Point []float64

// Clone returns an independent copy of p.
func (p Point) Clone() Point {
	if p == nil {
		return nil
	}
	c := make(Point, len(p))
	copy(c, p)
	return c
}

// Equal reports whether p and other have identical coordinates.
func (p Point) Equal(other Point) bool {
	if len(p) != len(other) {
		return false
	}
	for i, v := range p {
		if v != other[i] {
			return false
		}
	}
	return true
}

// Dominates reports whether p dominates other: p is less than or equal to
// other on every dimension and strictly less on at least one. Points of
// different dimensionality never dominate each other.
func (p Point) Dominates(other Point) bool {
	if len(p) != len(other) || len(p) == 0 {
		return false
	}
	strict := false
	for i, v := range p {
		switch {
		case v > other[i]:
			return false
		case v < other[i]:
			strict = true
		}
	}
	return strict
}

// DominatesIn reports whether p dominates other when only the dimensions in
// dims are compared. A nil dims means the full space (equivalent to
// Dominates). Dimensions out of range make the test fail closed (no
// domination) rather than panic, so that corrupted subspace masks cannot
// crash a remote site.
func (p Point) DominatesIn(other Point, dims []int) bool {
	if dims == nil {
		return p.Dominates(other)
	}
	if len(dims) == 0 {
		return false
	}
	strict := false
	for _, j := range dims {
		if j < 0 || j >= len(p) || j >= len(other) {
			return false
		}
		switch {
		case p[j] > other[j]:
			return false
		case p[j] < other[j]:
			strict = true
		}
	}
	return strict
}

// DominatesOrEqual reports whether p dominates other or equals it on the
// compared dimensions (nil dims = full space).
func (p Point) DominatesOrEqual(other Point, dims []int) bool {
	if dims == nil {
		if len(p) != len(other) || len(p) == 0 {
			return false
		}
		for i, v := range p {
			if v > other[i] {
				return false
			}
		}
		return true
	}
	if len(dims) == 0 {
		return false
	}
	for _, j := range dims {
		if j < 0 || j >= len(p) || j >= len(other) {
			return false
		}
		if p[j] > other[j] {
			return false
		}
	}
	return true
}

// L1 returns the L1 norm of p (its Manhattan distance to the origin). BBS
// expands index entries in ascending order of this quantity.
func (p Point) L1() float64 {
	var s float64
	for _, v := range p {
		s += v
	}
	return s
}

// L1In returns the L1 norm restricted to the dimensions in dims (nil = all).
func (p Point) L1In(dims []int) float64 {
	if dims == nil {
		return p.L1()
	}
	var s float64
	for _, j := range dims {
		if j >= 0 && j < len(p) {
			s += p[j]
		}
	}
	return s
}

// String renders p as "(v0, v1, ...)" with compact float formatting.
func (p Point) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range p {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%g", v)
	}
	b.WriteByte(')')
	return b.String()
}

// ValidDims reports whether dims is a usable subspace mask for points of
// dimensionality d: non-empty, in range, and free of duplicates. A nil mask
// is valid (it denotes the full space).
func ValidDims(dims []int, d int) bool {
	if dims == nil {
		return true
	}
	if len(dims) == 0 || len(dims) > d {
		return false
	}
	seen := make(map[int]bool, len(dims))
	for _, j := range dims {
		if j < 0 || j >= d || seen[j] {
			return false
		}
		seen[j] = true
	}
	return true
}

// Min returns the componentwise minimum of a and b. Both points must share
// the same dimensionality.
func Min(a, b Point) Point {
	out := make(Point, len(a))
	for i := range a {
		out[i] = math.Min(a[i], b[i])
	}
	return out
}

// Max returns the componentwise maximum of a and b. Both points must share
// the same dimensionality.
func Max(a, b Point) Point {
	out := make(Point, len(a))
	for i := range a {
		out[i] = math.Max(a[i], b[i])
	}
	return out
}
