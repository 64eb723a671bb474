package obs

import (
	"sort"
	"sync/atomic"
	"time"
)

// Window is a rotating two-phase, log-bucketed latency histogram: the
// recent-history complement to the cumulative Histogram. A cumulative
// histogram answers "what happened since the process started"; under
// sustained load the operational questions are windowed — what is p99
// *right now*, is the error budget burning *this minute* — and deriving
// a window from two cumulative scrapes pushes the subtraction onto every
// consumer. Window keeps two fixed banks of atomic bucket counters and
// rotates them every width: the previous bank is always one complete
// window, the current bank accumulates the next, and a Snapshot merges
// both, so the view covers between one and two widths of history and a
// burst can never vanish by landing exactly on a rotation edge.
//
// Design rules, matching the rest of the package:
//
//   - Zero-alloc, lock-free Observe: an epoch check, a binary search over
//     the fixed bucket bounds, and three atomic adds
//     (TestWindowObserveZeroAlloc pins this).
//   - Rotation is cooperative: the first Observe or Snapshot past the
//     epoch boundary performs it with one CAS; there is no background
//     goroutine to manage. Observations racing a rotation may land in
//     the just-retired bank — the window is an operational estimate, not
//     an audit log, and the error is bounded by the race window.
//   - Nil-safe: every method of a nil *Window no-ops.
//
// Buckets are logarithmically spaced (10µs growing by 1.5x to beyond
// 60s), so quantile estimates by in-bucket interpolation
// (WindowSnapshot.Quantile) carry a bounded relative error at every
// magnitude the transports produce.
type Window struct {
	width  int64   // rotation period in ns
	bounds []int64 // ascending inclusive upper bounds, ns; implicit +Inf after

	epoch     atomic.Int64  // UnixNano of the current phase's start (0 = unstarted)
	prevEpoch atomic.Int64  // UnixNano of the previous phase's start (0 = none)
	cur       atomic.Uint32 // active bank index (0/1)
	banks     [2]windowBank
}

// windowBank is one phase's counters.
type windowBank struct {
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	count  atomic.Uint64
	sumNS  atomic.Int64
}

func (b *windowBank) reset() {
	for i := range b.counts {
		b.counts[i].Store(0)
	}
	b.count.Store(0)
	b.sumNS.Store(0)
}

// defWindowBounds builds the default log-spaced bounds: 10µs growing by
// 1.5x per bucket until past 60s (≈40 buckets) — in-process calls through
// WAN-scale stalls. Integer arithmetic keeps the bounds exact.
func defWindowBounds() []int64 {
	var out []int64
	for v := int64(10_000); ; v = v * 3 / 2 {
		out = append(out, v)
		if v > int64(60*time.Second) {
			return out
		}
	}
}

// DefWindowWidth is the rotation period daemons use unless configured:
// short enough that a site's status and SLO evaluation see fresh tails,
// long enough that p99 at modest request rates has samples behind it.
const DefWindowWidth = 10 * time.Second

// NewWindow returns a windowed histogram with the default log-spaced
// bounds rotating every width (width <= 0 selects DefWindowWidth).
func NewWindow(width time.Duration) *Window {
	if width <= 0 {
		width = DefWindowWidth
	}
	bounds := defWindowBounds()
	w := &Window{width: int64(width), bounds: bounds}
	for i := range w.banks {
		w.banks[i].counts = make([]atomic.Uint64, len(bounds)+1)
	}
	return w
}

// Width returns the rotation period (0 for nil).
func (w *Window) Width() time.Duration {
	if w == nil {
		return 0
	}
	return time.Duration(w.width)
}

// Observe records one latency. Nil-safe; negative durations clamp to 0.
func (w *Window) Observe(d time.Duration) {
	if w == nil {
		return
	}
	w.observe(time.Now().UnixNano(), int64(d))
}

// ObserveAt records one latency d that ended at now, for a caller that
// has read the clock already. Nil-safe; negative durations clamp to 0.
func (w *Window) ObserveAt(now time.Time, d time.Duration) {
	if w == nil {
		return
	}
	w.observe(now.UnixNano(), int64(d))
}

func (w *Window) observe(now, ns int64) {
	w.maybeRotate(now)
	if ns < 0 {
		ns = 0
	}
	// Binary search for the first bound >= ns (the obs.Histogram
	// convention: counts[i] holds observations <= bounds[i]).
	lo, hi := 0, len(w.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if w.bounds[mid] < ns {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	b := &w.banks[w.cur.Load()]
	b.counts[lo].Add(1)
	b.count.Add(1)
	b.sumNS.Add(ns)
}

// maybeRotate advances the two-phase window when the current phase has
// aged out. Exactly one caller wins the epoch CAS and performs the bank
// flip; losers proceed against whichever bank they observe, which is the
// documented bounded race.
func (w *Window) maybeRotate(now int64) {
	for {
		e := w.epoch.Load()
		if e == 0 {
			if w.epoch.CompareAndSwap(0, now) {
				return
			}
			continue
		}
		age := now - e
		if age < w.width {
			return
		}
		if !w.epoch.CompareAndSwap(e, now) {
			return // another caller is rotating
		}
		old := w.cur.Load()
		next := 1 - old
		if age >= 2*w.width {
			// The active bank predates the previous full window too (an
			// idle gap): retire it as stale rather than promoting it.
			w.banks[old].reset()
			w.prevEpoch.Store(0)
		} else {
			w.prevEpoch.Store(e)
		}
		w.banks[next].reset()
		w.cur.Store(next)
		return
	}
}

// WindowSnapshot is a point-in-time merge of the window's two phases:
// one complete rotation period plus the partial current one.
type WindowSnapshot struct {
	// Bounds holds the inclusive bucket upper bounds; Counts[i] the
	// (non-cumulative) observations <= Bounds[i] with Counts[len(Bounds)]
	// the +Inf tail.
	Bounds []time.Duration
	Counts []uint64
	// Count and Sum aggregate every windowed observation.
	Count uint64
	Sum   time.Duration
	// Span approximates the wall time the snapshot covers (between one
	// and two rotation periods once warm), for rate derivation.
	Span time.Duration
}

// Snapshot merges both phases into a copy (zero value for nil).
func (w *Window) Snapshot() WindowSnapshot {
	var s WindowSnapshot
	w.SnapshotInto(&s)
	return s
}

// SnapshotInto is Snapshot writing into s, reusing s's slices when they
// have capacity — allocation-free once s has been filled once, for
// callers that snapshot on a steady cadence. Nil w resets s to the zero
// snapshot.
func (w *Window) SnapshotInto(s *WindowSnapshot) {
	if w == nil {
		*s = WindowSnapshot{Bounds: s.Bounds[:0], Counts: s.Counts[:0]}
		return
	}
	w.snapshotInto(time.Now().UnixNano(), s)
}

func (w *Window) snapshot(now int64) WindowSnapshot {
	var s WindowSnapshot
	w.snapshotInto(now, &s)
	return s
}

func (w *Window) snapshotInto(now int64, s *WindowSnapshot) {
	w.maybeRotate(now)
	bounds, counts := s.Bounds[:0], s.Counts[:0]
	*s = WindowSnapshot{}
	for _, b := range w.bounds {
		bounds = append(bounds, time.Duration(b))
	}
	for range w.bounds {
		counts = append(counts, 0)
	}
	counts = append(counts, 0)
	for bi := range w.banks {
		b := &w.banks[bi]
		for i := range b.counts {
			counts[i] += b.counts[i].Load()
		}
		s.Count += b.count.Load()
		s.Sum += time.Duration(b.sumNS.Load())
	}
	s.Bounds, s.Counts = bounds, counts
	start := w.epoch.Load()
	if pe := w.prevEpoch.Load(); pe != 0 {
		start = pe
	}
	if start != 0 && now > start {
		s.Span = time.Duration(now - start)
		if max := time.Duration(2 * w.width); s.Span > max {
			s.Span = max
		}
	}
}

// Quantile estimates the q-th quantile (q in [0,1]) by linear
// interpolation inside the bucket where the cumulative count crosses
// q×Count — the same estimator Prometheus's histogram_quantile uses.
// Observations beyond the last finite bound clamp to it. 0 when empty.
func (s WindowSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	switch {
	case q < 0:
		q = 0
	case q > 1:
		q = 1
	}
	rank := q * float64(s.Count)
	var cum uint64
	lower := time.Duration(0)
	for i, c := range s.Counts {
		if i == len(s.Bounds) {
			break // +Inf tail: clamp below
		}
		next := cum + c
		if float64(next) >= rank {
			if c == 0 {
				return lower
			}
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			upper := s.Bounds[i]
			return lower + time.Duration(frac*float64(upper-lower))
		}
		cum = next
		lower = s.Bounds[i]
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Rate returns the windowed observation rate in events/second (0 when
// the snapshot is empty or spans no time).
func (s WindowSnapshot) Rate() float64 {
	if s.Count == 0 || s.Span <= 0 {
		return 0
	}
	return float64(s.Count) / s.Span.Seconds()
}

// Mean returns the windowed mean latency (0 when empty).
func (s WindowSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Merge adds src's observations into s, so Quantile over s estimates the
// quantile of both windows' streams together — how a coordinator derives
// a cluster-wide p99 from its sites' windows. The first window merged into
// an empty s fixes the bucket bounds. A window whose bounds differ is
// re-bucketed by upper bound: exact when every window uses the default
// bounds, a conservative approximation otherwise. Span is the longer of
// the two.
func (s *WindowSnapshot) Merge(src WindowSnapshot) {
	if len(src.Bounds) == 0 {
		return
	}
	if len(s.Bounds) == 0 {
		s.Bounds = append([]time.Duration(nil), src.Bounds...)
		s.Counts = make([]uint64, len(s.Bounds)+1)
	}
	s.Count += src.Count
	s.Sum += src.Sum
	s.Span = max(s.Span, src.Span)
	for i, c := range src.Counts {
		j := len(s.Bounds) // +Inf stays +Inf
		if i < len(src.Bounds) {
			ub := src.Bounds[i]
			j = sort.Search(len(s.Bounds), func(k int) bool { return s.Bounds[k] >= ub })
		}
		s.Counts[j] += c
	}
}

// ExposeWindow registers w's live quantiles and rate as gauges on reg:
// name{quantile="0.5"|"0.95"|"0.99"} in seconds (the Prometheus summary
// idiom) plus name_rate in observations/second, name_count (windowed
// sample count) and name_sum (windowed latency sum in seconds) so
// consumers can derive their own rates and means without trusting the
// pre-interpolated quantiles. Values are computed at scrape time from a
// fresh snapshot. Nil-safe on both sides.
func ExposeWindow(reg *Registry, name string, w *Window, labels ...string) {
	if reg == nil || w == nil {
		return
	}
	for _, q := range []struct {
		label string
		v     float64
	}{{"0.5", 0.5}, {"0.95", 0.95}, {"0.99", 0.99}} {
		q := q
		reg.GaugeFunc(name, func() float64 {
			return w.Snapshot().Quantile(q.v).Seconds()
		}, append(append([]string(nil), labels...), "quantile", q.label)...)
	}
	reg.GaugeFunc(name+"_rate", func() float64 {
		return w.Snapshot().Rate()
	}, labels...)
	reg.GaugeFunc(name+"_count", func() float64 {
		return float64(w.Snapshot().Count)
	}, labels...)
	reg.GaugeFunc(name+"_sum", func() float64 {
		return w.Snapshot().Sum.Seconds()
	}, labels...)
}
