package core

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/obs/progress"
)

// delivery is one observed result's curve coordinates: the ordinal k,
// the home site, and the tuple identity.
type delivery struct {
	index int
	site  int
	id    int64
}

func collectDeliveries(t *testing.T, algo Algorithm, seed int64) ([]delivery, *Report) {
	t.Helper()
	parts, _ := makeWorkload(t, 600, 3, 4, gen.Independent, seed)
	cluster, err := NewLocalCluster(parts, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	var seq []delivery
	rep, err := Run(context.Background(), cluster, Options{
		Threshold: 0.3,
		Algorithm: algo,
		OnResult: func(r Result) {
			seq = append(seq, delivery{index: r.Index, site: r.Site, id: int64(r.Tuple.ID)})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return seq, rep
}

// Same seed ⇒ identical (ordinal, k, site) delivery sequence, and an
// identical count-based curve digest — the determinism the AUC pins in
// TestProtocolCostsGolden rest on. (Wall-clock coordinates vary; every
// count coordinate must not.)
func TestDeliveryDeterministic(t *testing.T) {
	for _, algo := range []Algorithm{DSUD, EDSUD} {
		seq1, rep1 := collectDeliveries(t, algo, 11)
		seq2, rep2 := collectDeliveries(t, algo, 11)
		if len(seq1) == 0 {
			t.Fatalf("%s: no deliveries", algo)
		}
		if len(seq1) != len(seq2) {
			t.Fatalf("%s: %d vs %d deliveries across same-seed runs", algo, len(seq1), len(seq2))
		}
		for i := range seq1 {
			if seq1[i] != seq2[i] {
				t.Fatalf("%s: delivery %d drifted: %+v vs %+v", algo, i, seq1[i], seq2[i])
			}
		}
		d1, d2 := rep1.Curve, rep2.Curve
		if d1 == nil || d2 == nil {
			t.Fatalf("%s: curve digest missing", algo)
		}
		if d1.AUCBandwidth != d2.AUCBandwidth || d1.Results != d2.Results ||
			d1.TuplesTotal != d2.TuplesTotal || d1.PerSite != d2.PerSite {
			t.Fatalf("%s: count-based digest drifted:\n%+v\n%+v", algo, d1, d2)
		}
		p1, p2 := d1.Checkpoints(), d2.Checkpoints()
		if len(p1) != len(p2) {
			t.Fatalf("%s: %d vs %d checkpoints", algo, len(p1), len(p2))
		}
		for i := range p1 {
			if p1[i].K != p2[i].K || p1[i].Tuples != p2[i].Tuples {
				t.Fatalf("%s: checkpoint %d drifted: %+v vs %+v", algo, i, p1[i], p2[i])
			}
		}
	}
}

// Each delivered result carries its provenance: a 1-based monotone
// ordinal, the local-pruning phase, the home site consistent with the
// final report, and protocol counters that never decrease.
func TestResultProvenance(t *testing.T) {
	parts, _ := makeWorkload(t, 500, 3, 3, gen.Independent, 7)
	cluster, err := NewLocalCluster(parts, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	var results []Result
	rep, err := Run(context.Background(), cluster, Options{
		Threshold: 0.3,
		Algorithm: EDSUD,
		OnResult:  func(r Result) { results = append(results, r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 || len(results) != len(rep.Skyline) {
		t.Fatalf("%d results for %d skyline tuples", len(results), len(rep.Skyline))
	}
	prev := Result{}
	for i, r := range results {
		if r.Index != i+1 {
			t.Errorf("result %d: ordinal %d", i, r.Index)
		}
		if r.Phase != PhaseLocalPruning {
			t.Errorf("result %d: phase %s, want %s", i, r.Phase, PhaseLocalPruning)
		}
		if r.Iteration <= prev.Iteration-1 || r.Broadcasts < prev.Broadcasts ||
			r.Expunged < prev.Expunged || r.Refills < prev.Refills || r.PrunedLocal < prev.PrunedLocal {
			t.Errorf("result %d: counters regressed: %+v after %+v", i, r, prev)
		}
		if home, ok := rep.Sites[r.Tuple.ID]; !ok || home != r.Site {
			t.Errorf("result %d: home site %d, report says %d", i, r.Site, home)
		}
		if r.GlobalProb < 0.3 {
			t.Errorf("result %d: delivered below threshold: %v", i, r.GlobalProb)
		}
		prev = r
	}
}

// Run always attaches a curve digest whose totals reconcile with the
// report, and records it into the attached /queryz log with the trace's
// query_id.
func TestReportCurveAndLog(t *testing.T) {
	parts, _ := makeWorkload(t, 500, 3, 3, gen.Independent, 3)
	plog := progress.NewLog(8)
	cluster, err := Open(ClusterConfig{Partitions: parts, Dims: 3, ProgressLog: plog})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	tr := NewTrace()
	rep, stats, err := cluster.QueryWithStats(context.Background(), Options{
		Threshold: 0.3, Algorithm: EDSUD, Trace: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := rep.Curve
	if d == nil {
		t.Fatal("report has no curve digest")
	}
	if stats.Curve != d {
		t.Error("QueryWithStats does not expose the report's curve")
	}
	if int(d.Results) != len(rep.Skyline) {
		t.Errorf("curve counted %d deliveries, skyline has %d", d.Results, len(rep.Skyline))
	}
	if d.Algorithm != "e-dsud" || d.Threshold != 0.3 || d.Sites != 3 {
		t.Errorf("identity fields wrong: %+v", d)
	}
	if d.QueryID == 0 || d.QueryID != tr.ID() {
		t.Errorf("query_id %x does not cross-link the trace %x", d.QueryID, tr.ID())
	}
	if d.AUCTime <= 0 || d.AUCTime > 1 || d.AUCBandwidth <= 0 || d.AUCBandwidth > 1 {
		t.Errorf("AUCs outside (0,1]: time=%v bw=%v", d.AUCTime, d.AUCBandwidth)
	}
	var perSite int32
	for _, n := range d.PerSite {
		perSite += n
	}
	if perSite != d.Results {
		t.Errorf("per-site delivered counts sum to %d, want %d", perSite, d.Results)
	}
	if plog.Total() != 1 {
		t.Fatalf("progress log holds %d digests, want 1", plog.Total())
	}
	if got := plog.Snapshot()[0]; got.QueryID != d.QueryID {
		t.Errorf("retained digest query_id %x, want %x", got.QueryID, d.QueryID)
	}
	if cluster.ProgressLog() != plog {
		t.Error("ProgressLog accessor lost the attachment")
	}
}

// The time-to-first-result window is fed from the always-on delivery
// curve, so an untraced query lands one observation (it used to take a
// trace to be counted).
func TestUntracedQueryFeedsTTFRWindow(t *testing.T) {
	parts, _ := makeWorkload(t, 500, 3, 3, gen.Independent, 3)
	cluster, err := NewLocalCluster(parts, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	query, first := obs.NewWindow(time.Minute), obs.NewWindow(time.Minute)
	cluster.SetLatencyWindows(query, first)
	rep, err := Run(context.Background(), cluster, Options{Threshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Skyline) == 0 || rep.Curve.TTFirstNS <= 0 {
		t.Fatalf("no first result to time: %d results, ttfr %d", len(rep.Skyline), rep.Curve.TTFirstNS)
	}
	snap := first.Snapshot()
	if snap.Count != 1 || snap.Sum != time.Duration(rep.Curve.TTFirstNS) {
		t.Errorf("ttfr window holds %d observations summing %v, want the curve's one (%v)",
			snap.Count, snap.Sum, time.Duration(rep.Curve.TTFirstNS))
	}
	if n := query.Snapshot().Count; n != 1 {
		t.Errorf("query window holds %d observations, want 1", n)
	}
}

// The explain report renders the curve, the per-site table and the
// phase breakdown, with monotone checkpoint ordinals.
func TestWriteExplain(t *testing.T) {
	parts, _ := makeWorkload(t, 500, 3, 3, gen.Independent, 5)
	cluster, err := NewLocalCluster(parts, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	rep, stats, err := cluster.QueryWithStats(context.Background(), Options{Threshold: 0.3, Algorithm: EDSUD})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteExplain(&buf, rep, stats); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"algorithm e-dsud", "delivery curve", "per-site contribution",
		"phase breakdown", "auc(bandwidth)", "cross-link: query_id",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
	last := 0
	seen := 0
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(strings.TrimSpace(line), "k=") {
			continue
		}
		var k int
		if _, err := fmtSscan(strings.TrimSpace(line), &k); err != nil {
			t.Fatalf("unparseable curve row %q: %v", line, err)
		}
		if k <= last {
			t.Errorf("curve ordinals not monotone: k=%d after k=%d", k, last)
		}
		last = k
		seen++
	}
	if seen == 0 {
		t.Error("no curve rows rendered")
	}

	// A curve-less report (from a pre-progress peer) must still render.
	rep.Curve = nil
	buf.Reset()
	if err := WriteExplain(&buf, rep, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "per-site contribution") {
		t.Errorf("degraded explain lost the contribution table:\n%s", buf.String())
	}
}

// fmtSscan parses the leading "k=<n>" of an explain curve row.
func fmtSscan(line string, k *int) (int, error) {
	return fmt.Sscanf(line, "k=%d", k)
}
