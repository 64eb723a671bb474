package site

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/msg"
	"repro/internal/prtree"
	"repro/internal/uncertain"
)

// scanPrune is the prune the bound cut replaced, kept as its oracle: every
// remaining tuple is tested, dominance on the full points first.
func scanPrune(s *session, feed msg.Feedback, force bool) int {
	if s.query.NoPrune || len(s.sky) == 0 {
		return 0
	}
	homeFactor := feed.HomeLocalProb / feed.Tuple.Prob * (1 - feed.Tuple.Prob)
	pruned := 0
	kept := s.sky[:0]
	for _, cand := range s.sky {
		if feed.Tuple.Dominates(cand.Tuple, s.query.Dims) &&
			(force || uncertain.BoundBelow(cand.Prob*homeFactor, s.query.Threshold)) {
			pruned++
			continue
		}
		kept = append(kept, cand)
	}
	s.sky = kept
	s.pruned += pruned
	return pruned
}

// sameSession says how got differs from want, "" when it does not: the
// same remaining tuples in the same order, the same count, and got's
// projected points those of its tuples.
func sameSession(got, want *session) string {
	ids := func(s *session) []uncertain.TupleID {
		var out []uncertain.TupleID
		for _, m := range s.sky {
			out = append(out, m.Tuple.ID)
		}
		return out
	}
	var points []float64
	for _, m := range got.sky {
		points = msg.Project(points, m.Tuple.Point, got.query.Dims)
	}
	switch {
	case !slices.Equal(ids(got), ids(want)):
		return fmt.Sprintf("remaining %v, scan %v", ids(got), ids(want))
	case got.pruned != want.pruned:
		return fmt.Sprintf("pruned %d, scan %d", got.pruned, want.pruned)
	case !slices.Equal(got.points, points):
		return fmt.Sprintf("points %v, tuples' %v", got.points, points)
	}
	return ""
}

// The bound-cut prune on projected points discards exactly what the scan
// of every remaining tuple does, in sequences of feedback between pops,
// on random sessions whose probabilities repeat so that ties straddle the
// cut: each feedback's home factor puts the bound of one of those
// probabilities at the threshold itself. Subspaces in any order, NoPrune
// and the forced prune are covered; moving the cut by one tuple either
// way fails it.
func TestPruneMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	probs := []float64{0.9, 0.7, 0.55, 0.5, 0.45, 0.4, 0.35, 0.3}
	subspaces := [][]int{nil, {0, 2}, {2, 1}, {1}, {2, 0, 1}}
	for trial := 0; trial < 400; trial++ {
		q := []float64{0.1, 0.3}[trial%2]
		query := msg.Query{Threshold: q, Dims: subspaces[trial%len(subspaces)], NoPrune: trial%23 == 0}
		force := trial%17 == 0
		var sky []uncertain.SkylineMember
		for k := range 20 + rng.Intn(40) {
			p := probs[rng.Intn(len(probs))]
			if p < q {
				continue
			}
			pt := geom.Point{rng.Float64(), rng.Float64(), rng.Float64()}
			sky = append(sky, uncertain.SkylineMember{Tuple: uncertain.Tuple{ID: uncertain.TupleID(k + 1), Point: pt, Prob: p}, Prob: p})
		}
		uncertain.SortMembers(sky)
		got, want := newSession(query, slices.Clone(sky), 3), &session{query: query, sky: slices.Clone(sky)}
		for step := 0; step < 12 && len(want.sky) > 0; step++ {
			// A feedback near the origin dominates most of the session; its
			// home factor h = q/(p(1+γ)) sits the bound at p on the threshold.
			scale := []float64{0.3, 0.6, 1}[rng.Intn(3)]
			pt := geom.Point{scale * rng.Float64(), scale * rng.Float64(), scale * rng.Float64()}
			h := q / (probs[rng.Intn(len(probs))] * (1 + uncertain.BoundMargin))
			if rng.Intn(4) == 0 {
				h *= 1 + float64(rng.Intn(3)-1)*1e-15
			}
			feed := msg.Feedback{Tuple: uncertain.Tuple{ID: 1 << 20, Point: pt, Prob: 0.5}, HomeLocalProb: h}
			if n, m := got.prune(feed, force), scanPrune(want, feed, force); n != m {
				t.Fatalf("trial %d step %d: pruned %d, scan %d", trial, step, n, m)
			}
			if why := sameSession(got, want); why != "" {
				t.Fatalf("trial %d step %d (query %+v force %v): %s", trial, step, query, force, why)
			}
			if rng.Intn(3) == 0 && len(want.sky) > 0 {
				var resp msg.Response
				got.next(&resp)
				if head := want.sky[0].Tuple.ID; resp.Exhausted || resp.Rep.Tuple.ID != head {
					t.Fatalf("trial %d step %d: next popped %+v, want tuple %d", trial, step, resp, head)
				}
				want.sky = want.sky[1:]
			}
		}
	}
}

// realSession is a compute_inproc-shaped site (10k independent tuples of
// 100k, one of ten sites) with its session at q = 0.3, and the feedback a
// query broadcasts to it: every other site's local skyline at q, each at
// its local probability, in report order.
func realSession(b *testing.B) (*session, []msg.Feedback) {
	db, err := gen.Generate(gen.Config{N: 100000, Dims: 3, Values: gen.Independent, Probs: gen.UniformProb, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	parts, err := gen.Partition(db, 10, 2)
	if err != nil {
		b.Fatal(err)
	}
	eng := New(0, parts[0], 3, 0)
	query := msg.Query{Threshold: 0.3}
	s := newSession(query, slices.Clone(eng.localSkyline(query.Threshold, nil)), 3)
	var feeds []msg.Feedback
	for _, part := range parts[1:] {
		prtree.Bulk(part, 3, 0).LocalSkylineFunc(query.Threshold, nil, func(m uncertain.SkylineMember) bool {
			feeds = append(feeds, msg.Feedback{Tuple: m.Tuple, HomeLocalProb: m.Prob})
			return true
		})
	}
	slices.SortFunc(feeds, func(a, b msg.Feedback) int {
		return uncertain.CompareMembers(uncertain.SkylineMember{Tuple: a.Tuple, Prob: a.HomeLocalProb},
			uncertain.SkylineMember{Tuple: b.Tuple, Prob: b.HomeLocalProb})
	})
	return s, feeds
}

// The site's prune kernel on a real session: every feedback of a query,
// by the scan and by the bound cut, each op on a fresh copy.
func BenchmarkSessionPrune(b *testing.B) {
	base, feeds := realSession(b)
	for _, kernel := range []struct {
		name  string
		prune func(*session, msg.Feedback, bool) int
	}{
		{"scan", scanPrune},
		{"cut", (*session).prune},
	} {
		b.Run(kernel.name, func(b *testing.B) {
			pruned := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := *base
				s.sky, s.points = slices.Clone(base.sky), slices.Clone(base.points)
				b.StartTimer()
				for _, feed := range feeds {
					pruned += kernel.prune(&s, feed, false)
				}
			}
			b.ReportMetric(float64(len(feeds)), "feedbacks/op")
			b.ReportMetric(float64(pruned)/float64(b.N), "pruned/op")
		})
	}
}
