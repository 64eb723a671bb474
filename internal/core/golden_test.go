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
// 2, a fresh cluster per row so wire bytes are per-query exact. A cold row
// is the cluster's first query, whose Init fetches the sites' summaries;
// a warm row is its second, which holds them. Every number is
// deterministic for a fixed seed, so the comparison is equality, not a
// threshold. A deliberate protocol change (fewer rounds, a different
// encoding) edits this table in the same diff; an edit nobody intended is
// a regression. All must also return the same skyline.
// docs/BENCHMARKING.md says how to update the table.
func TestProtocolCostsGolden(t *testing.T) {
	golden := []struct {
		algo                          Algorithm
		warm                          bool
		skyline, rounds               int
		messages, up, down, wireBytes int64
		aucBandwidth                  float64 // 0 = not pinned
	}{
		{Baseline, false, 16, 0, 4, 2000, 0, 86049, 0},
		// Each feedback goes only to the sites whose summary (certain
		// skyline) holds a dominator of it, and the others prune by it on
		// their next request: the same 26 rounds, answer and shipped
		// representatives; 49 fewer messages (112 -> 63); 5 fewer tuples
		// down (78 -> 73: a skipped site is owed the feedback, and only
		// what is still owed when the query ends is never sent). The cold
		// row's up also counts the 63 summary points its Init fetched
		// (26 -> 89), which the bandwidth axis charges before the first
		// answer (AUC 0.48858173 -> 0.30208333); wire bytes 10791 -> 9292.
		{DSUD, false, 16, 26, 63, 89, 73, 9292, 0.30208333},
		// The warm row ships no summary: up is the 26 representatives, as
		// before routing, and the AUC is 0.49431818 (was 0.48858173): 5
		// fewer tuples down.
		{DSUD, true, 16, 26, 63, 26, 73, 7804, 0.49431818},
		// e-DSUD's expunged candidates refill in the evaluate their site
		// is sent by the next broadcast, after its prune, or in a Next
		// when the broadcast skips it; the same 19 broadcasts and 27
		// representatives up; 35 fewer messages (84 -> 49); 6 fewer
		// tuples down (57 -> 51); cold: 63 summary points up (27 -> 90),
		// AUC 0.46205357 -> 0.25132979, wire bytes 8346 -> 7563.
		{EDSUD, false, 16, 19, 49, 90, 51, 7563, 0.25132979},
		// Warm: 27 up, as before routing; AUC 0.45432692 (was
		// 0.46205357): most of the 6 tuples saved are feedback still owed
		// when the last answer is in, so the answers sit where they did
		// on the tuple axis while the total they are measured against
		// shrinks.
		{EDSUD, true, 16, 19, 49, 27, 51, 6075, 0.45432692},
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
		if err == nil && g.warm {
			rep, err = Run(context.Background(), cluster, Options{Threshold: 0.3, Algorithm: g.algo})
		}
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
			t.Errorf("%v warm=%v: skyline/rounds/messages/up/down/wire bytes = %v, golden %v", g.algo, g.warm, got, want)
		}
		if g.aucBandwidth != 0 && math.Abs(rep.Curve.AUCBandwidth-g.aucBandwidth) > 1e-8 {
			t.Errorf("%v warm=%v: AUCBandwidth = %.8f, golden %.8f", g.algo, g.warm, rep.Curve.AUCBandwidth, g.aucBandwidth)
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
	// delivered before Init, which is what lifts the bandwidth AUC. The
	// serving tier's first query fetched the summaries, so the read ships
	// none, and routing its band's feedback saves DSUD 25 messages (64 ->
	// 39) and 5 tuples down (66 -> 61), e-DSUD 18 messages (48 -> 30) and
	// 6 tuples down (54 -> 48), which lifts the AUC a little further
	// (0.82890625 -> 0.83750000, 0.82261029 -> 0.82560484).
	resumed := []struct {
		algo                          Algorithm
		resumed, rounds               int
		messages, up, down, wireBytes int64
		aucBandwidth                  float64
	}{
		{DSUD, 8, 14, 39, 14, 61, 5463, 0.83750000},
		{EDSUD, 8, 10, 30, 14, 48, 4390, 0.82560484},
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
