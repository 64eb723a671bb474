package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestWindowObserveBasic(t *testing.T) {
	w := NewWindow(10 * time.Second)
	for i := 0; i < 100; i++ {
		w.Observe(time.Millisecond)
	}
	s := w.Snapshot()
	if s.Count != 100 {
		t.Fatalf("Count = %d, want 100", s.Count)
	}
	if s.Sum != 100*time.Millisecond {
		t.Fatalf("Sum = %v, want 100ms", s.Sum)
	}
	if got := s.Mean(); got != time.Millisecond {
		t.Fatalf("Mean = %v, want 1ms", got)
	}
	// Every observation is 1ms, so every quantile estimate must land in
	// the bucket containing 1ms.
	for _, q := range []float64{0.01, 0.5, 0.95, 0.99, 1} {
		est := s.Quantile(q)
		if est <= 0 || est > 5*time.Millisecond {
			t.Fatalf("Quantile(%v) = %v, not near 1ms", q, est)
		}
	}
}

func TestWindowNilSafe(t *testing.T) {
	var w *Window
	w.Observe(time.Second) // must not panic
	if got := w.Snapshot(); got.Count != 0 {
		t.Fatalf("nil Snapshot Count = %d", got.Count)
	}
	if got := w.Width(); got != 0 {
		t.Fatalf("nil Width = %v", got)
	}
}

func TestWindowObserveZeroAlloc(t *testing.T) {
	w := NewWindow(time.Hour) // no rotation during the run
	w.Observe(time.Millisecond)
	allocs := testing.AllocsPerRun(1000, func() {
		w.Observe(123 * time.Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates %v per run, want 0", allocs)
	}
}

// TestWindowSnapshotInto: reused-slice snapshots must match fresh ones
// and, once warm, allocate nothing.
func TestWindowSnapshotInto(t *testing.T) {
	w := NewWindow(time.Hour)
	for i := 0; i < 50; i++ {
		w.Observe(time.Duration(i) * time.Millisecond)
	}
	var s WindowSnapshot
	w.SnapshotInto(&s)
	fresh := w.Snapshot()
	if s.Count != fresh.Count || s.Sum != fresh.Sum || len(s.Bounds) != len(fresh.Bounds) || len(s.Counts) != len(fresh.Counts) {
		t.Fatalf("SnapshotInto mismatch: %+v vs %+v", s, fresh)
	}
	for i := range s.Counts {
		if s.Counts[i] != fresh.Counts[i] {
			t.Fatalf("Counts[%d]: %d vs %d", i, s.Counts[i], fresh.Counts[i])
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		w.SnapshotInto(&s)
	})
	if allocs != 0 {
		t.Fatalf("warm SnapshotInto allocates %v per run, want 0", allocs)
	}
	// Nil window resets without dropping capacity.
	var nilW *Window
	nilW.SnapshotInto(&s)
	if s.Count != 0 || len(s.Bounds) != 0 || len(s.Counts) != 0 {
		t.Fatalf("nil SnapshotInto left data: %+v", s)
	}
}

// TestWindowRotation drives the rotation logic with explicit clocks:
// observations older than two widths must age out of the snapshot, while
// the previous (complete) window must remain visible.
func TestWindowRotation(t *testing.T) {
	const width = int64(10 * time.Second)
	w := NewWindow(time.Duration(width))
	base := int64(1_000_000_000_000) // arbitrary epoch

	w.observe(base, int64(time.Millisecond))
	if got := w.snapshot(base + 1).Count; got != 1 {
		t.Fatalf("fresh snapshot Count = %d, want 1", got)
	}

	// One width later: the first observation is in the previous phase and
	// still visible.
	t1 := base + width + 1
	w.observe(t1, int64(2*time.Millisecond))
	s := w.snapshot(t1 + 1)
	if s.Count != 2 {
		t.Fatalf("after one rotation Count = %d, want 2 (previous window retained)", s.Count)
	}
	if s.Span <= 0 || s.Span > time.Duration(2*width) {
		t.Fatalf("Span = %v, want in (0, 2*width]", s.Span)
	}

	// Another width later: the first observation's phase has aged out, the
	// second is now in the previous phase.
	t2 := t1 + width + 1
	if got := w.snapshot(t2).Count; got != 1 {
		t.Fatalf("after two rotations Count = %d, want 1", got)
	}

	// A long idle gap (>= 2 widths) must drop everything.
	t3 := t2 + 5*width
	if got := w.snapshot(t3).Count; got != 0 {
		t.Fatalf("after idle gap Count = %d, want 0", got)
	}

	// And the window keeps working after the gap.
	w.observe(t3+1, int64(time.Millisecond))
	if got := w.snapshot(t3 + 2).Count; got != 1 {
		t.Fatalf("post-gap Count = %d, want 1", got)
	}
}

// TestWindowConcurrent hammers Observe and Snapshot from many goroutines
// with a rotation period short enough that rotations happen during the
// run. Run under -race this is the data-race proof; the final count check
// is deliberately loose because rotation discards old phases by design.
func TestWindowConcurrent(t *testing.T) {
	w := NewWindow(2 * time.Millisecond)
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				w.Observe(time.Duration(i%1000) * time.Microsecond)
				if i%64 == 0 {
					s := w.Snapshot()
					_ = s.Quantile(0.99)
					_ = s.Rate()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := w.Snapshot().Count; got > workers*perWorker {
		t.Fatalf("Count = %d exceeds total observations %d", got, workers*perWorker)
	}
}

// TestWindowQuantileEdges pins the interpolation arithmetic at bucket
// boundaries with hand-built snapshots, so the estimator is deterministic
// and stays put across refactors.
func TestWindowQuantileEdges(t *testing.T) {
	bounds := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}
	mk := func(counts ...uint64) WindowSnapshot {
		var total uint64
		for _, c := range counts {
			total += c
		}
		return WindowSnapshot{Bounds: bounds, Counts: counts, Count: total}
	}

	// All mass in one bucket: quantiles interpolate linearly across it.
	s := mk(0, 100, 0, 0) // 100 observations in (10ms, 20ms]
	if got := s.Quantile(0.5); got != 15*time.Millisecond {
		t.Fatalf("mid-bucket p50 = %v, want 15ms", got)
	}
	if got := s.Quantile(1); got != 20*time.Millisecond {
		t.Fatalf("p100 = %v, want upper bound 20ms", got)
	}

	// Mass split across buckets: the quantile that lands exactly on the
	// cumulative boundary returns the bucket edge.
	s = mk(50, 50, 0, 0)
	if got := s.Quantile(0.5); got != 10*time.Millisecond {
		t.Fatalf("edge p50 = %v, want 10ms", got)
	}
	if got := s.Quantile(0.75); got != 15*time.Millisecond {
		t.Fatalf("p75 = %v, want 15ms", got)
	}

	// Everything in the +Inf tail clamps to the last finite bound.
	s = mk(0, 0, 0, 10)
	if got := s.Quantile(0.99); got != 40*time.Millisecond {
		t.Fatalf("+Inf-tail p99 = %v, want clamp to 40ms", got)
	}

	// Empty snapshot.
	if got := (WindowSnapshot{}).Quantile(0.5); got != 0 {
		t.Fatalf("empty Quantile = %v, want 0", got)
	}

	// Out-of-range q clamps instead of extrapolating.
	s = mk(100, 0, 0, 0)
	if got := s.Quantile(2); got != 10*time.Millisecond {
		t.Fatalf("q>1 = %v, want 10ms", got)
	}
	if got := s.Quantile(-1); got != 0 {
		t.Fatalf("q<0 = %v, want 0", got)
	}
}

// TestHistogramQuantileEdges covers the same estimator on the cumulative
// Histogram snapshot (satellite: JSON exposition percentiles).
func TestHistogramQuantileEdges(t *testing.T) {
	h := newHistogram([]float64{0.010, 0.020, 0.040})
	for i := 0; i < 100; i++ {
		h.Observe(0.015) // all in (0.010, 0.020]
	}
	s := h.Snapshot()
	if got := s.Quantile(0.5); got != 0.015 {
		t.Fatalf("p50 = %v, want 0.015", got)
	}
	if got := s.Quantile(1); got != 0.020 {
		t.Fatalf("p100 = %v, want 0.020", got)
	}
	h.Observe(10) // +Inf tail
	if got := h.Snapshot().Quantile(1); got != 0.040 {
		t.Fatalf("+Inf clamp = %v, want 0.040", got)
	}
	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Fatalf("empty = %v, want 0", got)
	}
}

func TestWindowRate(t *testing.T) {
	const width = int64(10 * time.Second)
	w := NewWindow(time.Duration(width))
	base := int64(1_000_000_000_000)
	for i := 0; i < 100; i++ {
		w.observe(base+int64(i), int64(time.Millisecond))
	}
	s := w.snapshot(base + int64(time.Second))
	if r := s.Rate(); r < 99 || r > 101 {
		t.Fatalf("Rate = %v, want ~100/s", r)
	}
}

func TestExposeWindow(t *testing.T) {
	reg := NewRegistry()
	w := NewWindow(time.Minute)
	for i := 0; i < 100; i++ {
		w.Observe(time.Millisecond)
	}
	ExposeWindow(reg, "dsud_query_window_seconds", w, "algo", "edsud")
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`dsud_query_window_seconds{algo="edsud",quantile="0.5"}`,
		`dsud_query_window_seconds{algo="edsud",quantile="0.99"}`,
		`dsud_query_window_seconds_rate{algo="edsud"}`,
		`dsud_query_window_seconds_count{algo="edsud"} 100`,
		`dsud_query_window_seconds_sum{algo="edsud"} 0.1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Nil-safe both ways.
	ExposeWindow(nil, "x", w)
	ExposeWindow(reg, "x", nil)
}

// Two sites' windows merged bucket by bucket give the cluster quantiles of
// one window that observed both streams.
func TestMergeWindowQuantile(t *testing.T) {
	site0, site1, both := NewWindow(time.Hour), NewWindow(time.Hour), NewWindow(time.Hour)
	observe := func(w *Window, fast, slow int) {
		for i := 0; i < fast; i++ {
			w.Observe(time.Duration(200+i) * time.Microsecond)
			both.Observe(time.Duration(200+i) * time.Microsecond)
		}
		for i := 0; i < slow; i++ {
			w.Observe(time.Duration(40+i) * time.Millisecond)
			both.Observe(time.Duration(40+i) * time.Millisecond)
		}
	}
	observe(site0, 99, 1)
	observe(site1, 50, 50)

	var merged WindowSnapshot
	merged.Merge(site0.Snapshot())
	merged.Merge(WindowSnapshot{}) // an idle site adds nothing
	merged.Merge(site1.Snapshot())
	want := both.Snapshot()
	if merged.Count != 200 || merged.Sum != want.Sum {
		t.Fatalf("merged count/sum = %d/%v, want 200/%v", merged.Count, merged.Sum, want.Sum)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if got, want := merged.Quantile(q), want.Quantile(q); got != want {
			t.Fatalf("merged p%v = %v, one window over both streams says %v", q*100, got, want)
		}
	}
	if p50, p99 := merged.Quantile(0.5), merged.Quantile(0.99); p50 > time.Millisecond || p99 < 40*time.Millisecond {
		t.Fatalf("merged p50/p99 = %v/%v, want the fast and the slow mode", p50, p99)
	}
}

// A window with other bucket bounds re-buckets by upper bound into the
// bounds the first merged window fixed; its +Inf tail stays in the tail.
func TestMergeWindowRebucket(t *testing.T) {
	ms := time.Millisecond
	var merged WindowSnapshot
	merged.Merge(WindowSnapshot{Bounds: []time.Duration{ms, 100 * ms}, Counts: []uint64{10, 0, 0}, Count: 10})
	merged.Merge(WindowSnapshot{Bounds: []time.Duration{50 * ms}, Counts: []uint64{7, 3}, Count: 10})
	if merged.Count != 20 {
		t.Fatalf("merged count = %d", merged.Count)
	}
	if merged.Counts[0] != 10 || merged.Counts[1] != 7 || merged.Counts[2] != 3 {
		t.Fatalf("rebucketed counts = %v", merged.Counts)
	}
}
