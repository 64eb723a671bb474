package stream

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/uncertain"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 0.3, nil); err == nil {
		t.Error("capacity 0 must fail")
	}
	if _, err := New(10, 0, nil); err == nil {
		t.Error("q=0 must fail")
	}
	if _, err := New(10, 1.1, nil); err == nil {
		t.Error("q>1 must fail")
	}
	if _, err := New(10, 0.3, nil); err != nil {
		t.Errorf("valid window rejected: %v", err)
	}
}

func TestAppendValidation(t *testing.T) {
	w, err := New(4, 0.3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(uncertain.Tuple{ID: 1, Point: geom.Point{1}, Prob: 2}); err == nil {
		t.Error("invalid tuple must be rejected")
	}
	ok := uncertain.Tuple{ID: 1, Point: geom.Point{0.9}, Prob: 0.9}
	if _, err := w.Append(ok); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(ok); err == nil {
		t.Error("duplicate live id must be rejected")
	}
}

func randomStreamTuple(r *rand.Rand, id uncertain.TupleID, d int) uncertain.Tuple {
	p := make(geom.Point, d)
	for j := range p {
		p[j] = r.Float64()
	}
	return uncertain.Tuple{ID: id, Point: p, Prob: 0.05 + 0.95*r.Float64()}
}

// The core property: at every step the window's answer equals the
// brute-force probabilistic skyline of its live contents.
func TestSlidingSkylineMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	for trial := 0; trial < 10; trial++ {
		d := 1 + r.Intn(3)
		capacity := 5 + r.Intn(60)
		q := []float64{0.1, 0.3, 0.6}[r.Intn(3)]
		w, err := New(capacity, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		for step := 1; step <= 400; step++ {
			if _, err := w.Append(randomStreamTuple(r, uncertain.TupleID(step), d)); err != nil {
				t.Fatal(err)
			}
			if step%7 != 0 {
				continue
			}
			got := w.Skyline()
			want := w.Contents().Skyline(q, nil)
			if !uncertain.MembersEqual(got, want, 1e-6) {
				t.Fatalf("trial %d step %d (cap=%d q=%v): window answer %d, oracle %d",
					trial, step, capacity, q, len(got), len(want))
			}
		}
		if w.Len() != capacity {
			t.Fatalf("window length %d, want %d", w.Len(), capacity)
		}
	}
}

func TestSubspaceWindow(t *testing.T) {
	r := rand.New(rand.NewSource(102))
	dims := []int{0, 2}
	w, err := New(30, 0.3, dims)
	if err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= 200; step++ {
		if _, err := w.Append(randomStreamTuple(r, uncertain.TupleID(step), 3)); err != nil {
			t.Fatal(err)
		}
	}
	got := w.Skyline()
	want := w.Contents().Skyline(0.3, dims)
	if !uncertain.MembersEqual(got, want, 1e-6) {
		t.Fatalf("subspace window mismatch: %d vs %d", len(got), len(want))
	}
}

func TestEvictionReturnsOldest(t *testing.T) {
	w, err := New(2, 0.3, nil)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id uncertain.TupleID) uncertain.Tuple {
		return uncertain.Tuple{ID: id, Point: geom.Point{float64(id)}, Prob: 0.5}
	}
	for id := uncertain.TupleID(1); id <= 2; id++ {
		ev, err := w.Append(mk(id))
		if err != nil || ev != nil {
			t.Fatalf("unexpected eviction %v err %v", ev, err)
		}
	}
	ev, err := w.Append(mk(3))
	if err != nil {
		t.Fatal(err)
	}
	if ev == nil || ev.ID != 1 {
		t.Fatalf("evicted %v, want tuple 1", ev)
	}
	if w.Len() != 2 {
		t.Fatalf("Len = %d", w.Len())
	}
}

func TestEvictionRestoresDominatedTuples(t *testing.T) {
	// A strong old dominator suppresses a tuple; once the dominator slides
	// out, the tuple must re-enter the answer. This is exactly why the
	// candidate set must keep dominated-but-future-viable tuples.
	w, err := New(3, 0.3, nil)
	if err != nil {
		t.Fatal(err)
	}
	dominator := uncertain.Tuple{ID: 1, Point: geom.Point{0.1, 0.1}, Prob: 0.9}
	victim := uncertain.Tuple{ID: 2, Point: geom.Point{0.5, 0.5}, Prob: 0.8}
	filler := uncertain.Tuple{ID: 3, Point: geom.Point{0.9, 0.9}, Prob: 0.1}
	for _, tu := range []uncertain.Tuple{dominator, victim, filler} {
		if _, err := w.Append(tu); err != nil {
			t.Fatal(err)
		}
	}
	// victim: 0.8 × (1−0.9) = 0.08 < 0.3 — out for now, but candidate.
	for _, m := range w.Skyline() {
		if m.Tuple.ID == victim.ID {
			t.Fatal("suppressed tuple must not be in the answer yet")
		}
	}
	// Push the dominator out.
	if _, err := w.Append(uncertain.Tuple{ID: 4, Point: geom.Point{0.95, 0.95}, Prob: 0.1}); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range w.Skyline() {
		if m.Tuple.ID == victim.ID {
			found = true
			if math.Abs(m.Prob-0.8) > 1e-9 {
				t.Fatalf("restored probability %v, want 0.8", m.Prob)
			}
		}
	}
	if !found {
		t.Fatal("tuple must re-qualify once its only dominator expires")
	}
}

func TestPermanentDropByYoungerDominator(t *testing.T) {
	// A *younger* near-certain dominator makes the victim permanently
	// hopeless: it must leave the candidate set immediately.
	w, err := New(10, 0.3, nil)
	if err != nil {
		t.Fatal(err)
	}
	victim := uncertain.Tuple{ID: 1, Point: geom.Point{0.5, 0.5}, Prob: 0.9}
	if _, err := w.Append(victim); err != nil {
		t.Fatal(err)
	}
	if w.Candidates() != 1 {
		t.Fatalf("candidates = %d", w.Candidates())
	}
	killer := uncertain.Tuple{ID: 2, Point: geom.Point{0.1, 0.1}, Prob: 0.99}
	if _, err := w.Append(killer); err != nil {
		t.Fatal(err)
	}
	if w.Candidates() != 1 { // only the killer remains
		t.Fatalf("victim should be dropped permanently: candidates = %d", w.Candidates())
	}
	if w.Drops() == 0 {
		t.Fatal("drop counter must advance")
	}
}

func TestProbabilityOneDominators(t *testing.T) {
	w, err := New(4, 0.3, nil)
	if err != nil {
		t.Fatal(err)
	}
	victim := uncertain.Tuple{ID: 1, Point: geom.Point{0.5, 0.5}, Prob: 0.9}
	certain := uncertain.Tuple{ID: 2, Point: geom.Point{0.1, 0.1}, Prob: 1}
	if _, err := w.Append(certain); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(victim); err != nil {
		t.Fatal(err)
	}
	// victim's current probability is exactly 0 while the certain
	// dominator lives, but its future is clear, so it stays a candidate.
	if got := len(w.Skyline()); got != 1 {
		t.Fatalf("skyline size %d, want 1 (only the certain tuple)", got)
	}
	if w.Candidates() != 2 {
		t.Fatalf("candidates = %d, want 2", w.Candidates())
	}
	// Slide the certain dominator out.
	for id := uncertain.TupleID(3); id <= 5; id++ {
		if _, err := w.Append(uncertain.Tuple{ID: id, Point: geom.Point{0.9, 0.9}, Prob: 0.2}); err != nil {
			t.Fatal(err)
		}
	}
	want := w.Contents().Skyline(0.3, nil)
	if !uncertain.MembersEqual(w.Skyline(), want, 1e-9) {
		t.Fatal("window diverged after certain dominator expired")
	}
}

func TestCandidateSetSmallerThanWindow(t *testing.T) {
	r := rand.New(rand.NewSource(103))
	w, err := New(500, 0.3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= 3000; step++ {
		if _, err := w.Append(randomStreamTuple(r, uncertain.TupleID(step), 2)); err != nil {
			t.Fatal(err)
		}
	}
	if w.Candidates() >= w.Len()/2 {
		t.Errorf("candidate set (%d) should be far smaller than the window (%d)",
			w.Candidates(), w.Len())
	}
	if w.Drops() == 0 {
		t.Error("long streams must exercise permanent drops")
	}
}

func TestRebuildClearsDrift(t *testing.T) {
	r := rand.New(rand.NewSource(104))
	w, err := New(100, 0.2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= 5000; step++ {
		if _, err := w.Append(randomStreamTuple(r, uncertain.TupleID(step), 2)); err != nil {
			t.Fatal(err)
		}
	}
	before := w.Skyline()
	w.Rebuild()
	after := w.Skyline()
	if !uncertain.MembersEqual(before, after, 1e-6) {
		t.Fatal("rebuild changed the answer beyond drift tolerance")
	}
	want := w.Contents().Skyline(0.2, nil)
	if !uncertain.MembersEqual(after, want, 1e-12) {
		t.Fatal("rebuilt answer must be exactly the oracle")
	}
}

// Deltas must replay to exactly the sequence of answers.
func TestAppendDeltaTracksSkyline(t *testing.T) {
	r := rand.New(rand.NewSource(105))
	w, err := New(25, 0.3, nil)
	if err != nil {
		t.Fatal(err)
	}
	live := map[uncertain.TupleID]bool{}
	for step := 1; step <= 300; step++ {
		delta, err := w.AppendDelta(randomStreamTuple(r, uncertain.TupleID(step), 2))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range delta.Exited {
			if !live[m.Tuple.ID] {
				t.Fatalf("step %d: %d exited without being in", step, m.Tuple.ID)
			}
			delete(live, m.Tuple.ID)
		}
		for _, m := range delta.Entered {
			if live[m.Tuple.ID] {
				t.Fatalf("step %d: %d entered twice", step, m.Tuple.ID)
			}
			live[m.Tuple.ID] = true
		}
		if step%17 == 0 {
			want := w.Skyline()
			if len(want) != len(live) {
				t.Fatalf("step %d: replayed %d members, actual %d", step, len(live), len(want))
			}
			for _, m := range want {
				if !live[m.Tuple.ID] {
					t.Fatalf("step %d: replay missing %d", step, m.Tuple.ID)
				}
			}
		}
	}
}

func TestAppendDeltaErrorPropagates(t *testing.T) {
	w, err := New(4, 0.3, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := uncertain.Tuple{ID: 1, Point: geom.Point{1}, Prob: 9}
	if _, err := w.AppendDelta(bad); err == nil {
		t.Fatal("invalid tuple must fail through AppendDelta")
	}
}

// Sliding-window continuous skyline: per-arrival maintenance cost.
func BenchmarkSlidingWindow(b *testing.B) {
	for _, capacity := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("w=%d", capacity), func(b *testing.B) {
			w, err := New(capacity, 0.3, nil)
			if err != nil {
				b.Fatal(err)
			}
			r := rand.New(rand.NewSource(77))
			mk := func(id int) uncertain.Tuple {
				return uncertain.Tuple{
					ID:    uncertain.TupleID(id + 1),
					Point: []float64{r.Float64(), r.Float64()},
					Prob:  0.05 + 0.95*r.Float64(),
				}
			}
			for i := 0; i < capacity; i++ {
				if _, err := w.Append(mk(i)); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := w.Append(mk(capacity + i)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(w.Candidates()), "candidates")
		})
	}
}
