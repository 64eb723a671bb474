package round

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/msg"
	"repro/internal/serve"
	"repro/internal/site"
	"repro/internal/uncertain"
)

// routedRun is what a run over real site engines gave: its outcome, its
// deliveries in order and what it sent.
type routedRun struct {
	out       *Outcome
	delivered []uncertain.SkylineMember
	messages  int
	down      int // Init's known answer excluded
	stepDown  int
}

// runEngines runs opts over fresh site engines on parts, routing by the
// sites' summaries when summaries is set (mutated by mutate, when set).
func runEngines(t *testing.T, parts []uncertain.DB, opts Options, summaries bool, mutate func(int, *msg.Summary)) routedRun {
	t.Helper()
	engines := make([]*site.Engine, len(parts))
	for i, part := range parts {
		engines[i] = site.New(i, part, 3, 0)
	}
	f := &fakeSites{q: opts.Threshold, dims: opts.Dims, engines: engines, summaries: summaries, mutate: mutate}
	var r routedRun
	out, err := Run(context.Background(), f, opts, func(s Step) {
		if s.Kind != StepEvent {
			return
		}
		r.stepDown += s.Event.Down
		if s.Event.Kind == EventReport {
			r.delivered = append(r.delivered, uncertain.SkylineMember{Tuple: s.Event.Tuple, Prob: s.Event.Prob})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	r.out = out
	for _, reqs := range f.fanouts {
		for _, req := range reqs {
			if req.Kind == 0 {
				continue
			}
			r.messages++
			if req.Kind != msg.KindInit {
				r.down += len(req.Tuples)
			}
			if req.Kind == msg.KindEvaluate {
				r.down++
			}
		}
	}
	return r
}

// sameRun says how routed differs from broadcast, "" when it does not: the
// answer with every probability bit, the delivery order, rounds,
// broadcasts, expunges, refills and shipped tuples per site are equal,
// messages and tuples down no more, and the step stream's Down is what
// the requests carried.
func sameRun(routed, broadcast routedRun) string {
	bitsEqual := func(a, b []uncertain.SkylineMember) bool {
		return slices.EqualFunc(a, b, func(x, y uncertain.SkylineMember) bool {
			return x.Tuple.ID == y.Tuple.ID && math.Float64bits(x.Prob) == math.Float64bits(y.Prob)
		})
	}
	r, b := routed.out, broadcast.out
	shipped := func(o *Outcome) []int64 {
		var s []int64
		for _, st := range o.PerSite {
			s = append(s, st.Shipped)
		}
		return s
	}
	switch {
	case !bitsEqual(r.Skyline, b.Skyline):
		return fmt.Sprintf("answer %v, broadcast %v", r.Skyline, b.Skyline)
	case !bitsEqual(routed.delivered, broadcast.delivered):
		return fmt.Sprintf("delivered %v, broadcast %v", routed.delivered, broadcast.delivered)
	case r.Iterations != b.Iterations || r.Broadcasts != b.Broadcasts || r.Expunged != b.Expunged || r.Refills != b.Refills:
		return fmt.Sprintf("tally %+v, broadcast %+v", r.Tally, b.Tally)
	case !slices.Equal(shipped(r), shipped(b)):
		return fmt.Sprintf("shipped %v, broadcast %v", shipped(r), shipped(b))
	case routed.messages > broadcast.messages || routed.down > broadcast.down:
		return fmt.Sprintf("%d messages and %d down, broadcast %d and %d", routed.messages, routed.down, broadcast.messages, broadcast.down)
	case routed.stepDown != routed.down || broadcast.stepDown != broadcast.down:
		return fmt.Sprintf("steps say %d and %d down, requests carried %d and %d", routed.stepDown, broadcast.stepDown, routed.down, broadcast.down)
	}
	return ""
}

// routedSweep runs every configuration routed by the sites' summaries
// (each Init's passed through mutate, when set) and broadcast to all, and
// returns the configurations where the two differ (sameRun) and how many
// messages the routed runs saved. Seeds 1–3, m ∈ {2, 4, 8}, q ∈ {0.1,
// 0.3}, the full space and [0,2], DSUD and e-DSUD, each plain, top-3,
// stopped at 2 results, and resumed from the members above q + 0.2.
func routedSweep(t *testing.T, mutate func(int, *msg.Summary)) (differ []string, saved int) {
	t.Helper()
	for seed := int64(1); seed <= 3; seed++ {
		for _, m := range []int{2, 4, 8} {
			parts := drawParts(seed, m, 40, 3)
			for _, q := range []float64{0.1, 0.3} {
				for _, dims := range [][]int{nil, {0, 2}} {
					for _, enhanced := range []bool{false, true} {
						plain := Options{Threshold: q, Dims: dims, Enhanced: enhanced}
						full := runEngines(t, parts, plain, false, nil)
						var known []serve.Entry
						for _, a := range full.out.Skyline {
							if a.Prob >= q+0.2 {
								known = append(known, serve.Entry{Member: a, Site: full.out.Sites[a.Tuple.ID], Local: full.out.Local[a.Tuple.ID]})
							}
						}
						for _, v := range []struct {
							name string
							edit func(*Options)
						}{
							{"plain", func(*Options) {}},
							{"top-3", func(o *Options) { o.TopK = 3 }},
							{"max 2", func(o *Options) { o.MaxResults = 2 }},
							{"resumed", func(o *Options) { o.Known = known }},
						} {
							opts := plain
							v.edit(&opts)
							broadcast := runEngines(t, parts, opts, false, nil)
							routed := runEngines(t, parts, opts, true, mutate)
							if why := sameRun(routed, broadcast); why != "" {
								differ = append(differ, fmt.Sprintf("seed %d m=%d q=%v dims=%v enhanced=%v %s: %s", seed, m, q, dims, enhanced, v.name, why))
							}
							saved += broadcast.messages - routed.messages
						}
					}
				}
			}
		}
	}
	return differ, saved
}

// A run that routes each feedback by the sites' summaries and carries the
// skipped sites' prunes on their next request is the run that broadcasts
// to every site, bit for bit, over real site engines, in fewer messages.
func TestRoutedRunsMatchBroadcastRuns(t *testing.T) {
	differ, saved := routedSweep(t, nil)
	for _, d := range differ {
		t.Error(d)
	}
	if saved == 0 {
		t.Error("routing saved no message over the sweep")
	}
}

// The sweep sees a summary that misses a point: dropping the first point
// of every site's summary must make some configuration differ.
func TestRoutedSweepCatchesAMissingSummaryPoint(t *testing.T) {
	drop := func(_ int, s *msg.Summary) {
		if s.Len() > 0 {
			s.Coords = s.Coords[s.Width:]
		}
	}
	if differ, _ := routedSweep(t, drop); len(differ) == 0 {
		t.Fatal("no configuration differs with a point missing from every summary")
	}
}
