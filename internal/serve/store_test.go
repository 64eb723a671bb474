package serve

import (
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/uncertain"
)

func entry(id uncertain.TupleID, prob float64, site int) Entry {
	return Entry{
		Member: uncertain.SkylineMember{
			Tuple: uncertain.Tuple{ID: id, Point: geom.Point{float64(id), float64(id)}, Prob: prob},
			Prob:  prob,
		},
		Site: site,
	}
}

func ids(entries []Entry) []uncertain.TupleID {
	out := make([]uncertain.TupleID, len(entries))
	for i, e := range entries {
		out[i] = e.Member.Tuple.ID
	}
	return out
}

func equalIDs(a, b []uncertain.TupleID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStorePrefixOrder pins report order (descending probability, tuple
// ID ties ascending) and the threshold cut.
func TestStorePrefixOrder(t *testing.T) {
	s := New(0.2)
	s.Replace([]Entry{
		entry(3, 0.5, 0), entry(1, 0.9, 1), entry(4, 0.5, 2), entry(2, 0.25, 0),
	}, time.Now())

	got, v := s.Prefix(0.2)
	if v != s.Version() {
		t.Fatalf("prefix version %d != store version %d", v, s.Version())
	}
	if want := []uncertain.TupleID{1, 3, 4, 2}; !equalIDs(ids(got), want) {
		t.Fatalf("prefix order: got %v, want %v", ids(got), want)
	}

	// A higher threshold is a shorter prefix of the same order.
	got, _ = s.Prefix(0.5)
	if want := []uncertain.TupleID{1, 3, 4}; !equalIDs(ids(got), want) {
		t.Fatalf("prefix at 0.5: got %v, want %v", ids(got), want)
	}
	if !s.Covers(0.5) || !s.Covers(0.2) || s.Covers(0.1) {
		t.Fatal("coverage: any q >= floor is covered, below the floor is not")
	}
}

// TestStoreApply pins the delta semantics: removed tuples leave, upserts
// reposition at their new sorted rank, and the version moves only when
// something happened.
func TestStoreApply(t *testing.T) {
	s := New(0.1)
	s.Replace([]Entry{entry(1, 0.9, 0), entry(2, 0.6, 1), entry(3, 0.3, 2)}, time.Now())
	v0 := s.Version()

	s.Apply(nil, nil)
	if s.Version() != v0 {
		t.Fatal("empty delta must not bump the version")
	}

	// Tuple 3 rescores above tuple 2; tuple 1 leaves; tuple 4 arrives.
	s.Apply([]Entry{entry(3, 0.7, 2), entry(4, 0.4, 0)}, []uncertain.TupleID{1})
	if s.Version() == v0 {
		t.Fatal("effective delta must bump the version")
	}
	got, _ := s.Prefix(0.1)
	if want := []uncertain.TupleID{3, 2, 4}; !equalIDs(ids(got), want) {
		t.Fatalf("after delta: got %v, want %v", ids(got), want)
	}
	if got[0].Member.Prob != 0.7 {
		t.Fatalf("rescored probability not applied: %v", got[0].Member.Prob)
	}
	if s.Has(1) || !s.Has(3) || !s.Has(4) {
		t.Fatal("Has must follow the applied delta")
	}
}

// TestStoreCopyOnWrite pins what lets an update walk Entries without
// copying: a slice Entries returned is never written by a later Apply or
// Replace.
func TestStoreCopyOnWrite(t *testing.T) {
	s := New(0.1)
	s.Replace([]Entry{entry(1, 0.9, 0), entry(2, 0.6, 1), entry(3, 0.3, 2)}, time.Now())
	seen := s.Entries()
	snapshot := append([]Entry(nil), seen...)
	s.Apply([]Entry{entry(3, 0.8, 2), entry(4, 0.7, 0)}, []uncertain.TupleID{1})
	s.Apply(nil, []uncertain.TupleID{2})
	s.Replace([]Entry{entry(5, 0.5, 1)}, time.Now())
	for i := range seen {
		if seen[i].Member.Tuple.ID != snapshot[i].Member.Tuple.ID || seen[i].Member.Prob != snapshot[i].Member.Prob || seen[i].Site != snapshot[i].Site {
			t.Fatalf("entry %d of a published slice changed: %v, was %v", i, seen[i], snapshot[i])
		}
	}
	if !equalIDs(ids(s.Entries()), []uncertain.TupleID{5}) || s.Has(3) || !s.Has(5) {
		t.Fatalf("after Replace: %v", ids(s.Entries()))
	}
}

// TestStoreFreshness pins the freshness inputs: the store is fresh
// exactly when it is Valid, Invalidate makes it stale until the next
// Replace, and only Replace resets the refresh clock.
func TestStoreFreshness(t *testing.T) {
	s := New(0.3)
	t0 := time.Now()
	s.Replace(nil, t0)
	if !s.Valid() {
		t.Fatal("a replaced store must be valid")
	}

	// Apply does not reset the refresh clock and keeps the store valid.
	s.Apply([]Entry{entry(9, 0.8, 0)}, nil)
	if got := s.LastRefresh(); !got.Equal(t0) || !s.Valid() {
		t.Fatalf("Apply moved the refresh clock (%v != %v) or invalidated the store", got, t0)
	}

	v := s.Version()
	s.Invalidate()
	if s.Valid() {
		t.Fatal("invalidated store must not be valid")
	}
	if s.Version() == v {
		t.Fatal("Invalidate must bump the version")
	}
	s.Replace(nil, t0.Add(time.Minute))
	if !s.Valid() || !s.LastRefresh().Equal(t0.Add(time.Minute)) {
		t.Fatal("Replace must clear the invalidation and stamp the refresh clock")
	}
}
