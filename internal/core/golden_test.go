package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/uncertain"
)

// TestProtocolCostsGolden pins the exact protocol cost of every algorithm
// on one fixed workload over loopback TCP: N=2000, d=3, 4 sites, q=0.3,
// independent values, uniform probabilities, gen seed 1 / partition seed
// 2, a fresh cluster per algorithm so wire bytes are per-query exact.
// Every number is deterministic for a fixed seed, so the comparison is
// equality, not a threshold. A deliberate protocol change (fewer rounds,
// a different encoding) edits this table in the same diff; an edit nobody
// intended is a regression. All three must also return the same skyline.
// docs/BENCHMARKING.md says how to update the table.
func TestProtocolCostsGolden(t *testing.T) {
	golden := []struct {
		algo                          Algorithm
		skyline, rounds               int
		messages, up, down, wireBytes int64
		aucBandwidth                  float64 // 0 = not pinned
	}{
		{Baseline, 16, 0, 4, 2000, 0, 86049, 0},
		{DSUD, 16, 26, 112, 26, 78, 10791, 0.48858173},
		{EDSUD, 16, 19, 101, 36, 57, 9581, 0.43077957},
	}

	parts, _ := makeWorkload(t, 2000, 3, 4, gen.Independent, 1)
	addrs := startTCPSites(t, parts, 3)
	var first []uncertain.SkylineMember
	for _, g := range golden {
		cluster, err := Open(ClusterConfig{Addrs: addrs, Dims: 3})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(context.Background(), cluster, Options{Threshold: 0.3, Algorithm: g.algo})
		if cerr := cluster.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatalf("%v: %v", g.algo, err)
		}

		bw := rep.Bandwidth
		got := [...]int64{int64(len(rep.Skyline)), int64(rep.Iterations), bw.Messages, bw.TuplesUp, bw.TuplesDown, bw.Bytes}
		want := [...]int64{int64(g.skyline), int64(g.rounds), g.messages, g.up, g.down, g.wireBytes}
		if got != want {
			t.Errorf("%v: skyline/rounds/messages/up/down/wire bytes = %v, golden %v", g.algo, got, want)
		}
		if g.aucBandwidth != 0 && math.Abs(rep.Curve.AUCBandwidth-g.aucBandwidth) > 1e-8 {
			t.Errorf("%v: AUCBandwidth = %.8f, golden %.8f", g.algo, rep.Curve.AUCBandwidth, g.aucBandwidth)
		}

		if first == nil {
			first = rep.Skyline
		} else if !uncertain.MembersEqual(rep.Skyline, first, 1e-9) {
			t.Errorf("%v: skyline (%d members) disagrees with %v's (%d)", g.algo, len(rep.Skyline), golden[0].algo, len(first))
		}
	}
}
