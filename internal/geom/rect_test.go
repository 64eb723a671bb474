package geom

import (
	"testing"
	"testing/quick"
)

// encloses reports whether inner lies inside outer: a box contains another
// exactly when it contains both of its corners.
func encloses(outer, inner Rect) bool {
	return outer.ContainsPoint(inner.Lo) && outer.ContainsPoint(inner.Hi)
}

func TestRectExpandContains(t *testing.T) {
	var r Rect
	if !r.IsEmpty() {
		t.Fatal("zero Rect must be empty")
	}
	r = r.ExpandPoint(Point{1, 2})
	r = r.ExpandPoint(Point{3, 0})
	if r.IsEmpty() {
		t.Fatal("expanded Rect must not be empty")
	}
	if !r.Lo.Equal(Point{1, 0}) || !r.Hi.Equal(Point{3, 2}) {
		t.Fatalf("unexpected bounds %v", r)
	}
	for _, p := range []Point{{1, 0}, {3, 2}, {2, 1}} {
		if !r.ContainsPoint(p) {
			t.Errorf("%v should be inside %v", p, r)
		}
	}
	for _, p := range []Point{{0, 0}, {4, 1}, {2, 3}} {
		if r.ContainsPoint(p) {
			t.Errorf("%v should be outside %v", p, r)
		}
	}
	if r.ContainsPoint(Point{1}) {
		t.Error("dimension mismatch should not be contained")
	}
}

func TestRectExpandRect(t *testing.T) {
	a := Rect{Lo: Point{0, 0}, Hi: Point{1, 1}}
	b := Rect{Lo: Point{2, -1}, Hi: Point{3, 0.5}}
	u := a.ExpandRect(b)
	if !u.Lo.Equal(Point{0, -1}) || !u.Hi.Equal(Point{3, 1}) {
		t.Fatalf("union = %v", u)
	}
	if got := (Rect{}).ExpandRect(a); !got.Lo.Equal(a.Lo) || !got.Hi.Equal(a.Hi) {
		t.Error("empty ∪ a must equal a")
	}
	if got := a.ExpandRect(Rect{}); !got.Lo.Equal(a.Lo) || !got.Hi.Equal(a.Hi) {
		t.Error("a ∪ empty must equal a")
	}
	if !encloses(u, a) || !encloses(u, b) {
		t.Error("union must contain both inputs")
	}
	if encloses(a, u) {
		t.Error("a must not contain its strict superset")
	}
}

func TestRectAreaEnlargement(t *testing.T) {
	r := Rect{Lo: Point{0, 0}, Hi: Point{2, 3}}
	if got := r.Area(); got != 6 {
		t.Errorf("Area = %v, want 6", got)
	}
	if got := (Rect{}).Area(); got != 0 {
		t.Errorf("empty Area = %v", got)
	}
	grow := r.Enlargement(Rect{Lo: Point{0, 0}, Hi: Point{4, 3}})
	if grow != 6 {
		t.Errorf("Enlargement = %v, want 6", grow)
	}
	if got := r.Enlargement(Rect{Lo: Point{1, 1}, Hi: Point{2, 2}}); got != 0 {
		t.Errorf("contained Enlargement = %v, want 0", got)
	}
}

func TestMinDist(t *testing.T) {
	r := Rect{Lo: Point{2, 3}, Hi: Point{5, 5}}
	if got := r.MinDist(nil); got != 5 {
		t.Errorf("MinDist = %v, want 5", got)
	}
	if got := r.MinDist([]int{1}); got != 3 {
		t.Errorf("MinDist subspace = %v, want 3", got)
	}
	if got := (Rect{}).MinDist(nil); got != 0 {
		t.Errorf("empty MinDist = %v, want 0", got)
	}
}

func TestRectCloneIndependence(t *testing.T) {
	r := Rect{Lo: Point{1, 1}, Hi: Point{2, 2}}
	c := r.Clone()
	c.Lo[0] = 42
	if r.Lo[0] != 1 {
		t.Error("Clone must not alias")
	}
}

func TestRectString(t *testing.T) {
	if got := (Rect{}).String(); got != "[empty]" {
		t.Errorf("String = %q", got)
	}
	r := Rect{Lo: Point{1, 1}, Hi: Point{2, 2}}
	if got := r.String(); got != "[(1, 1) .. (2, 2)]" {
		t.Errorf("String = %q", got)
	}
}

// Property tests over rectangle algebra via testing/quick.
func TestQuickRectUnionContains(t *testing.T) {
	mk := func(ax, ay, bx, by uint8) Rect {
		lo := Point{float64(ax % 16), float64(ay % 16)}
		hi := Point{float64(bx % 16), float64(by % 16)}
		return Rect{Lo: Min(lo, hi), Hi: Max(lo, hi)}
	}
	f := func(ax, ay, bx, by, cx, cy, dx, dy uint8) bool {
		a := mk(ax, ay, bx, by)
		b := mk(cx, cy, dx, dy)
		u := a.ExpandRect(b)
		// The union contains both inputs and its area is at least each.
		return encloses(u, a) && encloses(u, b) &&
			u.Area() >= a.Area() && u.Area() >= b.Area() &&
			a.Enlargement(b) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickExpandPointContains(t *testing.T) {
	f := func(ax, ay, bx, by, px, py uint8) bool {
		r := Rect{}.ExpandPoint(Point{float64(ax % 16), float64(ay % 16)})
		r = r.ExpandPoint(Point{float64(bx % 16), float64(by % 16)})
		p := Point{float64(px % 16), float64(py % 16)}
		grown := r.ExpandPoint(p)
		return grown.ContainsPoint(p) && encloses(grown, r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMinDistLowerBoundsMembers(t *testing.T) {
	// MinDist of a rect never exceeds the L1 of any contained point.
	f := func(ax, ay, bx, by, t1, t2 uint8) bool {
		lo := Point{float64(ax % 16), float64(ay % 16)}
		hi := Point{float64(bx % 16), float64(by % 16)}
		r := Rect{Lo: Min(lo, hi), Hi: Max(lo, hi)}
		// Interpolate a point inside r.
		f1 := float64(t1) / 255
		f2 := float64(t2) / 255
		p := Point{
			r.Lo[0] + f1*(r.Hi[0]-r.Lo[0]),
			r.Lo[1] + f2*(r.Hi[1]-r.Lo[1]),
		}
		return r.MinDist(nil) <= p.L1()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}
