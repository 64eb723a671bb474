package progress

import (
	"reflect"
	"testing"
	"time"
)

// The AUCs must match the closed forms on a hand-checked curve.
func TestFinishAUC(t *testing.T) {
	var b Builder
	// Two deliveries: t = 0 and 50 of T = 100; b = 10 and 60 of B = 100.
	b.Observe(0, Point{K: 1, NS: 0, Tuples: 10})
	b.Observe(1, Point{K: 2, NS: 50, Tuples: 60})
	var d Digest
	b.Finish(&d, 100, 100)
	// AUC_time = (2·100 − (0+50)) / (2·100) = 0.75
	if d.AUCTime != 0.75 {
		t.Errorf("AUCTime = %v, want 0.75", d.AUCTime)
	}
	// AUC_bw = (2·100 − (10+60)) / (2·100) = 0.65
	if d.AUCBandwidth != 0.65 {
		t.Errorf("AUCBandwidth = %v, want 0.65", d.AUCBandwidth)
	}
	if d.Results != 2 || d.TTFirstNS != 0 || d.TTLastNS != 50 {
		t.Errorf("summary fields wrong: %+v", d)
	}
	if d.PerSite[0] != 1 || d.PerSite[1] != 1 {
		t.Errorf("per-site counts wrong: %v", d.PerSite[:2])
	}
}

// Instant delivery scores 1.0; an empty query scores 0 everywhere.
func TestFinishEdges(t *testing.T) {
	var b Builder
	b.Observe(0, Point{K: 1})
	var d Digest
	b.Finish(&d, time.Second, 1000)
	if d.AUCTime != 1 || d.AUCBandwidth != 1 {
		t.Errorf("instant delivery AUCs = %v/%v, want 1/1", d.AUCTime, d.AUCBandwidth)
	}

	var empty Builder
	var e Digest
	empty.Finish(&e, time.Second, 1000)
	if e.AUCTime != 0 || e.AUCBandwidth != 0 || e.Results != 0 || e.NumPoints != 0 {
		t.Errorf("empty query digest not zero: %+v", e)
	}
}

// Checkpoints are log-spaced, always include k=1 and the final delivery,
// stay within MaxPoints for large result counts, and are monotone in
// every coordinate.
func TestCheckpointsLogSpaced(t *testing.T) {
	const n = 100000
	var b Builder
	for i := 0; i < n; i++ {
		b.Observe(i%3, Point{K: int32(i + 1), NS: int64(i) * 1000, Tuples: int64(i * 2)})
	}
	var d Digest
	b.Finish(&d, n*time.Microsecond, 2*n)
	pts := d.Checkpoints()
	if len(pts) == 0 || len(pts) > MaxPoints {
		t.Fatalf("%d checkpoints, want 1..%d", len(pts), MaxPoints)
	}
	if pts[0].K != 1 {
		t.Errorf("first checkpoint k = %d, want 1", pts[0].K)
	}
	if last := pts[len(pts)-1]; last.K != n {
		t.Errorf("final delivery not anchored: last k = %d, want %d", last.K, n)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].K <= pts[i-1].K || pts[i].NS < pts[i-1].NS || pts[i].Tuples < pts[i-1].Tuples {
			t.Errorf("curve not monotone at %d: %+v after %+v", i, pts[i], pts[i-1])
		}
	}
}

// Site indexes beyond MaxSites fold into the last slot with the
// truncation flag; negative sites are ignored.
func TestPerSiteOverflow(t *testing.T) {
	var b Builder
	b.Observe(MaxSites+3, Point{K: 1, NS: int64(time.Millisecond), Tuples: 1})
	b.Observe(-1, Point{K: 2, NS: int64(2 * time.Millisecond), Tuples: 2})
	var d Digest
	b.Finish(&d, time.Second, 10)
	if d.PerSite[MaxSites-1] != 1 || !d.SitesTruncated {
		t.Errorf("overflow site not folded: %v truncated=%v", d.PerSite, d.SitesTruncated)
	}
}

// Identical observation sequences must produce identical digests — the
// determinism the same-seed delivery tests and the golden AUC pins
// (core.TestProtocolCostsGolden) rest on.
func TestBuilderDeterministic(t *testing.T) {
	feed := func(b *Builder) {
		for i := 0; i < 500; i++ {
			b.Observe(i%4, Point{K: int32(i + 1), NS: int64(i*i) * 1000, Tuples: int64(7 * i)})
		}
	}
	var b1, b2 Builder
	feed(&b1)
	feed(&b2)
	var d1, d2 Digest
	b1.Finish(&d1, time.Second, 3500)
	b2.Finish(&d2, time.Second, 3500)
	if !reflect.DeepEqual(d1, d2) {
		t.Fatalf("same observations, different digests:\n%+v\n%+v", d1, d2)
	}
}

// The observation path must not allocate — it runs once per delivered
// result inside the query loop.
func TestObserveZeroAlloc(t *testing.T) {
	var b Builder
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		i++
		b.Observe(i%8, Point{K: int32(i), NS: int64(i) * 1000, Tuples: int64(i)})
	}); n != 0 {
		t.Fatalf("Observe allocates %v times per call", n)
	}
}

// Every method of a nil builder and nil digest must be a safe no-op.
func TestNilSafe(t *testing.T) {
	var b *Builder
	b.Observe(0, Point{K: 1, NS: int64(time.Second), Tuples: 1})
	b.Reset()
	b.Finish(&Digest{}, time.Second, 1)
	if b.Results() != 0 {
		t.Error("nil builder not inert")
	}
	var d *Digest
	if d.Checkpoints() != nil {
		t.Error("nil digest has checkpoints")
	}
}
