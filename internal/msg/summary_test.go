package msg

import (
	"slices"
	"testing"

	"repro/internal/geom"
)

// A summary on the subspace [0,2] of 3-d points: its index's Dominates compares the
// projected coordinates with the point's own on those dimensions, With
// adds a point only when nothing covers it, drops what it dominates, and
// never writes the summary it was called on.
func TestSummaryDominatesAndWith(t *testing.T) {
	dims := []int{0, 2}
	s := Summary{Width: 2, Coords: []float64{1, 5, 3, 3, 5, 1}}
	before := slices.Clone(s.Coords)
	for _, tc := range []struct {
		p    geom.Point
		want bool
	}{
		{geom.Point{2, 9, 6}, true},  // (1,5) dominates (2,6)
		{geom.Point{3, 0, 3}, false}, // equals (3,3): no strict dimension
		{geom.Point{0.5, 0, 9}, false},
		{geom.Point{9, 9, 0.5}, false},
	} {
		if got := s.Index().Dominates(Project(nil, tc.p, dims)); got != tc.want {
			t.Errorf("Dominates(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := s.With(geom.Point{3, 7, 3}, dims); !slices.Equal(got.Coords, before) {
		t.Errorf("With of a covered point: %v", got.Coords)
	}
	got := s.With(geom.Point{2, 7, 2}, dims)
	if want := []float64{1, 5, 5, 1, 2, 2}; !slices.Equal(got.Coords, want) || got.Width != 2 {
		t.Errorf("With(2,_,2) = %+v, want coords %v", got, want)
	}
	if !slices.Equal(s.Coords, before) {
		t.Errorf("With wrote the summary it was called on: %v", s.Coords)
	}
	if !s.Fits(2) || s.Fits(3) || (Summary{Width: 2, Coords: []float64{1}}).Fits(2) || (Summary{}).Fits(0) {
		t.Error("Fits accepts a summary of the wrong width or a partial point")
	}
}
