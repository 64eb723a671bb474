package geom

import "fmt"

// Rect is a closed axis-aligned minimum bounding rectangle [Lo, Hi]. The
// zero Rect (nil corners) is the empty rectangle; ExpandPoint grows it.
type Rect struct {
	Lo Point
	Hi Point
}

// RectFromPoint returns the degenerate rectangle covering exactly p.
func RectFromPoint(p Point) Rect {
	return Rect{Lo: p.Clone(), Hi: p.Clone()}
}

// IsEmpty reports whether r covers no points.
func (r Rect) IsEmpty() bool { return len(r.Lo) == 0 }

// Dims returns the dimensionality of r (0 when empty).
func (r Rect) Dims() int { return len(r.Lo) }

// Clone returns an independent copy of r.
func (r Rect) Clone() Rect {
	return Rect{Lo: r.Lo.Clone(), Hi: r.Hi.Clone()}
}

// ExpandPoint returns the smallest rectangle covering both r and p.
func (r Rect) ExpandPoint(p Point) Rect {
	if r.IsEmpty() {
		return RectFromPoint(p)
	}
	return Rect{Lo: Min(r.Lo, p), Hi: Max(r.Hi, p)}
}

// ExpandRect returns the smallest rectangle covering both r and other.
func (r Rect) ExpandRect(other Rect) Rect {
	if r.IsEmpty() {
		return other.Clone()
	}
	if other.IsEmpty() {
		return r.Clone()
	}
	return Rect{Lo: Min(r.Lo, other.Lo), Hi: Max(r.Hi, other.Hi)}
}

// ContainsPoint reports whether p lies inside r (boundaries included).
func (r Rect) ContainsPoint(p Point) bool {
	if r.IsEmpty() || len(p) != len(r.Lo) {
		return false
	}
	for i, v := range p {
		if v < r.Lo[i] || v > r.Hi[i] {
			return false
		}
	}
	return true
}

// Area returns the d-dimensional volume of r. Degenerate rectangles have
// zero area.
func (r Rect) Area() float64 {
	if r.IsEmpty() {
		return 0
	}
	area := 1.0
	for i := range r.Lo {
		area *= r.Hi[i] - r.Lo[i]
	}
	return area
}

// Enlargement returns how much r's area would grow to absorb other.
func (r Rect) Enlargement(other Rect) float64 {
	return r.ExpandRect(other).Area() - r.Area()
}

// MinDist returns the L1 distance from the origin to the nearest corner of r
// restricted to dims (nil = all); this is the BBS expansion priority.
func (r Rect) MinDist(dims []int) float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.Lo.L1In(dims)
}

// String renders r as "[lo .. hi]".
func (r Rect) String() string {
	if r.IsEmpty() {
		return "[empty]"
	}
	return fmt.Sprintf("[%s .. %s]", r.Lo, r.Hi)
}
