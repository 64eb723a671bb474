// Package uncertain implements the paper's uncertainty data model (§3):
// tuples with existential probabilities, possible-world semantics (eq. 1–2),
// and the closed-form skyline probability (eq. 3–5) together with the
// cross-site factor of Observation 1 (eq. 9).
//
// The package doubles as the correctness oracle for the rest of the system:
// everything here is written for clarity, not speed, and the indexed /
// distributed implementations are tested against it.
package uncertain

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/geom"
)

// TupleID uniquely identifies a tuple across the whole (global) database.
// The paper assumes tuples are globally unique (§3.1); IDs make that
// explicit and let sites refer to feedback tuples without re-shipping them.
type TupleID uint64

// NoTuple is a sentinel ID guaranteed not to identify a real tuple; probe
// queries use it so that self-exclusion logic never skips a stored tuple.
const NoTuple TupleID = ^TupleID(0)

// Tuple is one uncertain record: a point in d-dimensional space (smaller is
// better on every attribute) plus the probability that the record truly
// exists (0 < Prob <= 1).
type Tuple struct {
	ID    TupleID
	Point geom.Point
	Prob  float64
}

// Validate reports whether t is a well-formed uncertain tuple of
// dimensionality d (d <= 0 skips the dimensionality check).
func (t Tuple) Validate(d int) error {
	if len(t.Point) == 0 {
		return fmt.Errorf("tuple %d: empty point", t.ID)
	}
	if d > 0 && len(t.Point) != d {
		return fmt.Errorf("tuple %d: dimensionality %d, want %d", t.ID, len(t.Point), d)
	}
	if !(t.Prob > 0 && t.Prob <= 1) {
		return fmt.Errorf("tuple %d: probability %v outside (0,1]", t.ID, t.Prob)
	}
	for j, v := range t.Point {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("tuple %d: coordinate %d is %v", t.ID, j, v)
		}
	}
	return nil
}

// Clone returns a deep copy of t.
func (t Tuple) Clone() Tuple {
	return Tuple{ID: t.ID, Point: t.Point.Clone(), Prob: t.Prob}
}

// Dominates reports whether t dominates other in the subspace dims
// (nil = full space). Ties on every compared dimension are not domination.
func (t Tuple) Dominates(other Tuple, dims []int) bool {
	return t.Point.DominatesIn(other.Point, dims)
}

// String renders the tuple in the paper's quaternion-ish style.
func (t Tuple) String() string {
	return fmt.Sprintf("<id=%d %s p=%.3g>", t.ID, t.Point, t.Prob)
}

// DB is an uncertain database: an unordered collection of tuples.
type DB []Tuple

// ErrDuplicateID reports that a DB contains two tuples with the same ID.
var ErrDuplicateID = errors.New("uncertain: duplicate tuple id")

// Validate checks every tuple and ID uniqueness. d <= 0 means "infer the
// dimensionality from the first tuple".
func (db DB) Validate(d int) error {
	if len(db) == 0 {
		return nil
	}
	if d <= 0 {
		d = len(db[0].Point)
	}
	seen := make(map[TupleID]bool, len(db))
	for _, t := range db {
		if err := t.Validate(d); err != nil {
			return err
		}
		if seen[t.ID] {
			return fmt.Errorf("%w: %d", ErrDuplicateID, t.ID)
		}
		seen[t.ID] = true
	}
	return nil
}

// Dims returns the dimensionality of the database (0 when empty).
func (db DB) Dims() int {
	if len(db) == 0 {
		return 0
	}
	return len(db[0].Point)
}

// Clone returns a deep copy of db.
func (db DB) Clone() DB {
	out := make(DB, len(db))
	for i, t := range db {
		out[i] = t.Clone()
	}
	return out
}

// SkyProb computes eq. 3: the skyline probability of t with respect to db,
//
//	P_sky(t, db) = P(t) × Π_{t' ∈ db, t' ≺ t} (1 − P(t'))
//
// in the subspace dims (nil = full space). Any tuple in db sharing t's ID is
// skipped, so the function works both for members of db and for foreign
// tuples carrying their own existential probability.
func (db DB) SkyProb(t Tuple, dims []int) float64 {
	return t.Prob * db.CrossSkyProb(t, dims)
}

// CrossSkyProb computes eq. 9 (Observation 1): the factor contributed by db
// to the skyline probability of a tuple t that lives elsewhere,
//
//	P_sky(t, D_x) = Π_{t' ∈ D_x, t' ≺ t} (1 − P(t'))
//
// i.e. the probability that no tuple of db dominates-and-exists. The
// existential probability of t itself is not included.
func (db DB) CrossSkyProb(t Tuple, dims []int) float64 {
	prob := 1.0
	for _, other := range db {
		if other.ID == t.ID {
			continue
		}
		if other.Dominates(t, dims) {
			prob *= 1 - other.Prob
		}
	}
	return prob
}

// SkylineMember is one entry of a probabilistic skyline answer.
type SkylineMember struct {
	Tuple Tuple
	// Prob is the (global) skyline probability of Tuple with respect to
	// the database(s) the answer was computed over.
	Prob float64
}

// Skyline computes the probabilistic skyline of db by brute force: every
// tuple whose skyline probability (eq. 3) is at least q, sorted by
// descending probability with ID as the tiebreak. It is O(N²) and intended
// as the reference oracle and for modest inputs.
func (db DB) Skyline(q float64, dims []int) []SkylineMember {
	var out []SkylineMember
	for _, t := range db {
		if p := db.SkyProb(t, dims); p >= q {
			out = append(out, SkylineMember{Tuple: t.Clone(), Prob: p})
		}
	}
	SortMembers(out)
	return out
}

// GlobalSkyProb computes eq. 4: the global skyline probability of t over a
// horizontal partitioning, as the product of per-partition factors
// (Lemma 1). t must belong to exactly one partition; its own partition
// contributes eq. 3 (with P(t)) and every other partition contributes eq. 9.
func GlobalSkyProb(t Tuple, parts []DB, dims []int) float64 {
	prob := t.Prob
	for _, part := range parts {
		prob *= part.CrossSkyProb(t, dims)
	}
	return prob
}

// Union flattens a horizontal partitioning back into one database.
func Union(parts []DB) DB {
	var n int
	for _, p := range parts {
		n += len(p)
	}
	out := make(DB, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// CompareMembers is the protocol's report order as a cmp-style function:
// descending probability, ties broken by ascending tuple ID so answers
// are deterministic. Every sorted skyline list in the system — local
// skylines at the sites, the coordinator's materialized answer — uses it.
func CompareMembers(a, b SkylineMember) int {
	if a.Prob != b.Prob {
		return cmp.Compare(b.Prob, a.Prob)
	}
	return cmp.Compare(a.Tuple.ID, b.Tuple.ID)
}

// SortMembers puts members in report order (CompareMembers).
func SortMembers(members []SkylineMember) {
	slices.SortFunc(members, CompareMembers)
}

// PrefixCut returns how many leading elements of an n-element list in
// report order have probability >= q, where prob(i) reads the i-th
// element's probability: a threshold query over such a list is its
// first PrefixCut elements.
func PrefixCut(n int, q float64, prob func(i int) float64) int {
	return sort.Search(n, func(i int) bool { return prob(i) < q })
}

// MembersEqual reports whether two skyline answers contain the same tuples
// with the same probabilities, up to tol, ignoring order.
func MembersEqual(a, b []SkylineMember, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	am := make(map[TupleID]float64, len(a))
	for _, m := range a {
		am[m.Tuple.ID] = m.Prob
	}
	for _, m := range b {
		p, ok := am[m.Tuple.ID]
		if !ok || math.Abs(p-m.Prob) > tol {
			return false
		}
	}
	return true
}

// BoundMargin is γ, the relative slack an upper bound must clear before it
// may discard a tuple: a bound and the fold it bounds are both
// floating-point products of the same factors, and each may round on
// either side of its real value by less than γ (docs/ALGORITHMS.md §3,
// "The outward margin").
const BoundMargin = 1e-9

// BoundBelow reports whether bound, a computed upper bound on some
// tuple's skyline probability, proves that probability below q even after
// rounding: bound·(1+γ) < q. Every prune and expunge decides with it; a
// report decides on the fold itself (>= q), which is the definition.
func BoundBelow(bound, q float64) bool { return bound*(1+BoundMargin) < q }
