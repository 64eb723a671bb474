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
		// e-DSUD's expunged candidates refill in the evaluate their site
		// is sent by the next broadcast, after its prune: the same 19
		// broadcasts and 57 tuples down; 17 fewer messages (the Nexts of
		// the 17 standalone refills the loop used to send, 101 -> 84);
		// 9 fewer tuples up (36 -> 27: 8 expunged where there were 17,
		// since a refill popped after the feedback's prune skips the
		// tuples it pruned, 23 -> 32); 1,235 fewer wire bytes (9581 ->
		// 8346); and answers earlier on the bandwidth axis (AUC 0.43077957
		// -> 0.46205357), the refills no longer shipping ahead of them.
		{EDSUD, 16, 19, 84, 27, 57, 8346, 0.46205357},
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

	// The same query as a ModeAuto read below a serving tier's floor of
	// 0.4, which resumes from the store's 8 members: their IDs ride free
	// to their home sites, and each site is sent the members homed
	// elsewhere in its Init, one tuple down each (8 × 3 = 24). The band
	// round then broadcasts none of them: DSUD 26 -> 14 rounds, 104 -> 80
	// tuples; e-DSUD 19 -> 10 rounds, 84 -> 68 tuples. The 8 are
	// delivered before Init, which is what lifts the bandwidth AUC.
	resumed := []struct {
		algo                          Algorithm
		resumed, rounds               int
		messages, up, down, wireBytes int64
		aucBandwidth                  float64
	}{
		{DSUD, 8, 14, 64, 14, 66, 7062, 0.82890625},
		{EDSUD, 8, 10, 48, 14, 54, 5639, 0.82261029},
	}
	for _, g := range resumed {
		cluster, err := Open(ClusterConfig{Addrs: addrs, Dims: 3})
		if err != nil {
			t.Fatal(err)
		}
		var rep *Report
		server, err := cluster.Serve(context.Background(), ServeConfig{Floor: 0.4, Algorithm: g.algo})
		if err == nil {
			rep, err = server.Query(context.Background(), Options{Threshold: 0.3, Algorithm: g.algo, Mode: ModeAuto})
		}
		if cerr := cluster.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatalf("resumed %v: %v", g.algo, err)
		}
		bw := rep.Bandwidth
		got := [...]int64{int64(rep.Resumed), int64(rep.Iterations), bw.Messages, bw.TuplesUp, bw.TuplesDown, bw.Bytes}
		want := [...]int64{int64(g.resumed), int64(g.rounds), g.messages, g.up, g.down, g.wireBytes}
		if got != want {
			t.Errorf("resumed %v: resumed/rounds/messages/up/down/wire bytes = %v, golden %v", g.algo, got, want)
		}
		if math.Abs(rep.Curve.AUCBandwidth-g.aucBandwidth) > 1e-8 {
			t.Errorf("resumed %v: AUCBandwidth = %.8f, golden %.8f", g.algo, rep.Curve.AUCBandwidth, g.aucBandwidth)
		}
		if !uncertain.MembersEqual(rep.Skyline, first, 1e-9) {
			t.Errorf("resumed %v: skyline (%d members) disagrees with %v's (%d)", g.algo, len(rep.Skyline), golden[0].algo, len(first))
		}
	}
}
