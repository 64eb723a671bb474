package experiments

import (
	"math"
	"testing"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// Golden values for a small known series: 10, 20, 30, 40, 50.
func TestSummarizeGolden(t *testing.T) {
	d := Summarize([]float64{30, 10, 50, 20, 40}) // unsorted on purpose
	if d.N != 5 || d.Min != 10 || d.Max != 50 {
		t.Fatalf("n/min/max: %+v", d)
	}
	if !approx(d.Mean, 30) {
		t.Errorf("mean %v, want 30", d.Mean)
	}
	if !approx(d.Median, 30) {
		t.Errorf("median %v, want 30", d.Median)
	}
	// p95 with linear interpolation: rank = 0.95*4 = 3.8 → 40 + 0.8*10.
	if !approx(d.P95, 48) {
		t.Errorf("p95 %v, want 48", d.P95)
	}
	// Sample stddev of 10..50 step 10 = sqrt(1000/4).
	if !approx(d.Stddev, math.Sqrt(250)) {
		t.Errorf("stddev %v, want %v", d.Stddev, math.Sqrt(250))
	}
	if !approx(d.CV, math.Sqrt(250)/30) {
		t.Errorf("cv %v, want %v", d.CV, math.Sqrt(250)/30)
	}
}

// Even-length series interpolate the median between the middle pair.
func TestSummarizeEvenMedian(t *testing.T) {
	d := Summarize([]float64{1, 2, 3, 4})
	if !approx(d.Median, 2.5) {
		t.Errorf("median %v, want 2.5", d.Median)
	}
	if !approx(d.P95, 3.85) { // rank 0.95*3 = 2.85 → 3 + 0.85
		t.Errorf("p95 %v, want 3.85", d.P95)
	}
}

// n=1: every statistic equals the sample, spread is zero.
func TestSummarizeSingle(t *testing.T) {
	d := Summarize([]float64{7.5})
	want := Dist{N: 1, Min: 7.5, Max: 7.5, Mean: 7.5, Median: 7.5, P95: 7.5}
	if d != want {
		t.Fatalf("got %+v, want %+v", d, want)
	}
}

// A constant series has zero stddev and CV regardless of length.
func TestSummarizeConstant(t *testing.T) {
	d := Summarize([]float64{4, 4, 4, 4, 4, 4})
	if d.Stddev != 0 || d.CV != 0 {
		t.Fatalf("constant series spread: %+v", d)
	}
	if d.Min != 4 || d.Max != 4 || d.Median != 4 || d.Mean != 4 || d.P95 != 4 {
		t.Fatalf("constant series stats: %+v", d)
	}
}

// The all-zero series must not divide by the zero mean.
func TestSummarizeZeroMean(t *testing.T) {
	d := Summarize([]float64{0, 0, 0})
	if d.CV != 0 || d.Mean != 0 {
		t.Fatalf("zero series: %+v", d)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if d := Summarize(nil); d != (Dist{}) {
		t.Fatalf("empty series: %+v", d)
	}
}

// Summarize must not mutate the caller's slice.
func TestSummarizeDoesNotSort(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestPercentileBounds(t *testing.T) {
	xs := []float64{1, 2, 3}
	if Percentile(xs, 0) != 1 || Percentile(xs, 1) != 3 {
		t.Fatal("p0/p1 must be min/max")
	}
	if !approx(Percentile(xs, 0.5), 2) {
		t.Fatal("p50 of odd series must be the middle element")
	}
}
