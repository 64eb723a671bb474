package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/msg"
	"repro/internal/transport"
	"repro/internal/uncertain"
)

// fakeSite replays the §5.3 hotel-booking example: its local skyline list
// is injected as the paper's quaternions and its eq. 9 answers come from a
// scripted cross-probability function (the example never discloses the
// underlying databases, only which tuples ultimately qualify). The pruning
// logic mirrors site.Engine exactly.
type fakeSite struct {
	threshold float64
	sky       []msg.Representative
	cross     func(id uncertain.TupleID) float64
	pruned    int // session-cumulative, as the engine reports it
}

func (f *fakeSite) Handle(_ context.Context, req *msg.Request) (*msg.Response, error) {
	switch req.Kind {
	case msg.KindInit, msg.KindNext:
		if len(f.sky) == 0 {
			return &msg.Response{Exhausted: true}, nil
		}
		head := f.sky[0]
		f.sky = f.sky[1:]
		return &msg.Response{Rep: head}, nil
	case msg.KindEvaluate:
		feed := req.Feed
		homeFactor := feed.HomeLocalProb / feed.Tuple.Prob * (1 - feed.Tuple.Prob)
		pruned := 0
		kept := f.sky[:0]
		for _, s := range f.sky {
			if feed.Tuple.Dominates(s.Tuple, nil) && s.LocalProb*homeFactor < f.threshold {
				pruned++
				continue
			}
			kept = append(kept, s)
		}
		f.sky = kept
		f.pruned += pruned
		return &msg.Response{CrossProb: f.cross(feed.Tuple.ID), Pruned: pruned, SessionPruned: f.pruned}, nil
	default:
		return nil, fmt.Errorf("fakeSite: unexpected kind %v", req.Kind)
	}
}

func (f *fakeSite) client() transport.Client { return transport.Local(f) }

// rep builds one of the paper's quaternions <x, y, P(t), P_sky>.
func rep(id uncertain.TupleID, x, y, prob, local float64) msg.Representative {
	return msg.Representative{
		Tuple:     uncertain.Tuple{ID: id, Point: geom.Point{x, y}, Prob: prob},
		LocalProb: local,
	}
}

// paperExampleSites reproduces Table 2a: the sorted local skyline sets of
// the Qingdao, Shanghai and Xiamen sites with q = 0.3. Tuples 1..3 — the
// eventual answer (6,6), (8,4) and (3,8) — are scripted to meet the
// example's "suppose P_g-sky > 0.3" assumption (cross factors of 1); all
// other tuples get strongly dominated cross factors so they fail exactly
// as the example's hidden databases make them fail.
func paperExampleSites() []*fakeSite {
	winners := map[uncertain.TupleID]bool{1: true, 2: true, 3: true}
	cross := func(id uncertain.TupleID) float64 {
		if winners[id] {
			return 1
		}
		return 0.1
	}
	const q = 0.3
	return []*fakeSite{
		{threshold: q, cross: cross, sky: []msg.Representative{
			rep(1, 6, 6, 0.7, 0.65),
			rep(2, 8, 4, 0.8, 0.6),
			rep(3, 3, 8, 0.8, 0.5),
		}},
		{threshold: q, cross: cross, sky: []msg.Representative{
			rep(4, 6.5, 7, 0.8, 0.65),
			rep(5, 4, 9, 0.6, 0.6),
			rep(6, 9, 5, 0.7, 0.6),
		}},
		{threshold: q, cross: cross, sky: []msg.Representative{
			rep(7, 6.4, 7.5, 0.9, 0.8),
			rep(8, 3.5, 11, 0.7, 0.7),
			rep(9, 10, 4.5, 0.7, 0.7),
		}},
	}
}

func runPaperExample(t *testing.T, algo Algorithm) *Report {
	t.Helper()
	sites := paperExampleSites()
	clients := make([]transport.Client, len(sites))
	for i, s := range sites {
		clients[i] = s.client()
	}
	cluster, err := NewClusterFromClients(clients, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	report, err := Run(context.Background(), cluster, Options{Threshold: 0.3, Algorithm: algo})
	if err != nil {
		t.Fatal(err)
	}
	return report
}

// TestEDSUDPaperExample replays §5.3 end to end: the answer must be
// SKY(H) = {(6,6), (8,4), (3,8)} with the example's probabilities.
func TestEDSUDPaperExample(t *testing.T) {
	report := runPaperExample(t, EDSUD)
	want := map[uncertain.TupleID]float64{1: 0.65, 2: 0.6, 3: 0.5}
	if len(report.Skyline) != len(want) {
		t.Fatalf("skyline = %v, want the 3 tuples of the worked example", report.Skyline)
	}
	for _, m := range report.Skyline {
		w, ok := want[m.Tuple.ID]
		if !ok {
			t.Fatalf("unexpected member %v", m)
		}
		if math.Abs(m.Prob-w) > 1e-12 {
			t.Fatalf("member %d prob %v, want %v", m.Tuple.ID, m.Prob, w)
		}
	}
	// The Observation-2 numbers of the example: (6.5,7) and (6.4,7.5) are
	// eliminated without ever being broadcast (the paper prunes their
	// local copies; our e-DSUD additionally expunges the queued copies,
	// per the §5.2 text — see DESIGN.md note 3).
	if report.Expunged == 0 {
		t.Error("e-DSUD should expunge the dominated queued tuples of the example")
	}
}

func TestDSUDPaperExample(t *testing.T) {
	report := runPaperExample(t, DSUD)
	want := map[uncertain.TupleID]bool{1: true, 2: true, 3: true}
	if len(report.Skyline) != len(want) {
		t.Fatalf("skyline = %v, want 3 members", report.Skyline)
	}
	for _, m := range report.Skyline {
		if !want[m.Tuple.ID] {
			t.Fatalf("unexpected member %v", m)
		}
	}
	if report.Expunged != 0 {
		t.Error("DSUD must not expunge")
	}
}

// e-DSUD must spend strictly less bandwidth than DSUD on the worked
// example: the dominated hotel tuples never travel back out of the server.
func TestPaperExampleBandwidthAdvantage(t *testing.T) {
	dsud := runPaperExample(t, DSUD)
	edsud := runPaperExample(t, EDSUD)
	if edsud.Bandwidth.Tuples() >= dsud.Bandwidth.Tuples() {
		t.Fatalf("e-DSUD bandwidth %d, DSUD %d; expected strict improvement",
			edsud.Bandwidth.Tuples(), dsud.Bandwidth.Tuples())
	}
	if edsud.Broadcasts >= dsud.Broadcasts {
		t.Fatalf("e-DSUD broadcasts %d, DSUD %d; expected fewer", edsud.Broadcasts, dsud.Broadcasts)
	}
}
