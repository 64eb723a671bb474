package experiments

import (
	"math"
	"sort"
)

// Dist summarises one metric's sample distribution. All fields derive
// from the raw samples; Median and P95 use linear interpolation between
// order statistics (the numpy default), Stddev is the sample standard
// deviation (0 when n < 2), and CV = Stddev/Mean (0 when Mean == 0).
type Dist struct {
	N      int
	Min    float64
	Max    float64
	Mean   float64
	Median float64
	P95    float64
	Stddev float64
	CV     float64
}

// Summarize computes the distribution of xs. An empty slice yields the
// zero Dist.
func Summarize(xs []float64) Dist {
	if len(xs) == 0 {
		return Dist{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	d := Dist{
		N:      len(sorted),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		Median: Percentile(sorted, 0.50),
		P95:    Percentile(sorted, 0.95),
	}
	var sum float64
	for _, x := range sorted {
		sum += x
	}
	d.Mean = sum / float64(len(sorted))
	if len(sorted) > 1 {
		var ss float64
		for _, x := range sorted {
			dev := x - d.Mean
			ss += dev * dev
		}
		d.Stddev = math.Sqrt(ss / float64(len(sorted)-1))
	}
	if d.Mean != 0 {
		d.CV = d.Stddev / d.Mean
	}
	return d
}

// Percentile returns the p-th quantile (p in [0,1]) of an ascending
// sorted slice, linearly interpolating between the two nearest order
// statistics. Panics on an empty slice; callers summarising real runs
// always have at least one sample.
func Percentile(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	rank := p * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Soak latency percentile keys (SoakResult.Latency). Each maps to a Dist
// whose samples are that percentile measured once per soak iteration, so
// the result captures both the tail estimate and its run-to-run spread.
const (
	SoakP50 = "p50"
	SoakP95 = "p95"
	SoakP99 = "p99"
)

// SoakPercentiles lists the latency keys in rendering order.
func SoakPercentiles() []string { return []string{SoakP50, SoakP95, SoakP99} }

// SoakResult is what one Soak call measured: an open-loop load generator
// drives mixed query+update traffic at TargetRPS for DurationSeconds,
// Iterations times, and per-iteration latency percentiles (milliseconds,
// measured from each request's *scheduled* arrival so coordinated
// omission cannot flatter the tail) land as distributions.
type SoakResult struct {
	TargetRPS       float64
	DurationSeconds float64
	Iterations      int
	Workers         int
	// Profile is the arrival-rate shape: "steady", "burst" or "ramp".
	Profile string
	// UpdateFraction is the share of offered traffic that is insert/delete
	// maintenance rather than queries.
	UpdateFraction float64
	// Outcome totals across all iterations. The three classes partition
	// the offered load: Requests = ok + Errors + Deadline, where Deadline
	// counts requests that exceeded their per-request deadline.
	Requests int64
	Errors   int64
	Deadline int64
	// ThroughputQPS is completed-ok queries/sec per iteration.
	ThroughputQPS Dist
	// Latency maps SoakP50/P95/P99 to per-iteration distributions in
	// milliseconds, over successful requests.
	Latency map[string]Dist
}

// ErrorRate returns (errors+deadline)/requests (0 when no requests ran).
func (s *SoakResult) ErrorRate() float64 {
	if s == nil || s.Requests == 0 {
		return 0
	}
	return float64(s.Errors+s.Deadline) / float64(s.Requests)
}

// Percentile returns the named latency distribution (zero Dist when
// absent or nil).
func (s *SoakResult) Percentile(key string) Dist {
	if s == nil {
		return Dist{}
	}
	return s.Latency[key]
}
