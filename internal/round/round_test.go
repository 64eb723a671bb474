package round

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/msg"
	"repro/internal/serve"
	"repro/internal/site"
	"repro/internal/uncertain"
)

// fakeSite is one in-memory site: its sorted local skyline, an eq. 9
// oracle, and the Observation-2 pruning rule of site.Engine.
type fakeSite struct {
	sky    []msg.Representative
	cross  func(uncertain.Tuple) float64
	db     uncertain.DB
	pruned int
}

// fakeSites implements Sites with no transport, no goroutine and no
// clock: a fan-out visits its filled slots in index order. It keeps every
// fan-out's slots and the home of every tuple it shipped, for checkFanouts,
// and hands out one reply slice it overwrites each time, as the contract
// allows. dims is the query's subspace (nil: the full space). With
// engines set, the slots go to real site engines instead of sites, bound
// as a query's view binds them or, with maint, as a maintainer's.
type fakeSites struct {
	q       float64
	dims    []int
	sites   []*fakeSite
	engines []*site.Engine
	maint   bool
	fanouts [][]msg.Request
	home    map[uncertain.TupleID]int
	replies []*msg.Response
}

func (f *fakeSites) Len() int { return max(len(f.sites), len(f.engines)) }

func (f *fakeSites) Fanout(_ context.Context, reqs []msg.Request) ([]*msg.Response, error) {
	if len(reqs) != f.Len() {
		return nil, fmt.Errorf("fan-out of %d slots over %d sites", len(reqs), f.Len())
	}
	f.fanouts = append(f.fanouts, slices.Clone(reqs))
	if f.replies == nil {
		f.replies, f.home = make([]*msg.Response, f.Len()), make(map[uncertain.TupleID]int)
	}
	clear(f.replies)
	for i, req := range reqs {
		if req.Kind == 0 {
			continue
		}
		r, err := f.call(i, req)
		if err != nil {
			return nil, err
		}
		if (req.Kind == msg.KindInit || req.Kind == msg.KindNext || req.Refill) && !r.Exhausted {
			f.home[r.Rep.Tuple.ID] = i
		}
		f.replies[i] = r
	}
	return f.replies, nil
}

func (f *fakeSites) call(i int, req msg.Request) (*msg.Response, error) {
	if f.engines != nil {
		// The binding core's view does: a query's one session, its query
		// on Init; a maintainer's query on each update and evaluate.
		query := msg.Query{Threshold: f.q, Dims: f.dims}
		switch {
		case f.maint && req.Kind != msg.KindReplicate:
			req.Query = query
		case f.maint:
		case req.Kind == msg.KindInit:
			req.Session, req.Query = 1, query
		default:
			req.Session = 1
		}
		return f.engines[i].Handle(context.Background(), &req)
	}
	s := f.sites[i]
	resp := &msg.Response{}
	switch req.Kind {
	case msg.KindInit, msg.KindNext:
		f.next(i, resp)
	case msg.KindEvaluate:
		f.evaluate(i, req.Feed, resp)
		if req.Refill {
			f.next(i, resp)
		}
	case msg.KindShipAll:
		resp.Tuples = make([]msg.Representative, len(s.db))
		for k, tu := range s.db {
			resp.Tuples[k].Tuple = tu
		}
	default:
		return nil, fmt.Errorf("fake site %d: unexpected %v", i, req.Kind)
	}
	return resp, nil
}

// next pops site i's head into resp, as site.Engine answers a Next and
// the refill of an evaluate.
func (f *fakeSites) next(i int, resp *msg.Response) {
	s := f.sites[i]
	if len(s.sky) == 0 {
		resp.Exhausted = true
		return
	}
	resp.Rep, s.sky = s.sky[0], s.sky[1:]
}

// evaluate answers feed's factor at site i into resp after the
// Observation-2 prune.
func (f *fakeSites) evaluate(i int, feed msg.Feedback, resp *msg.Response) {
	s := f.sites[i]
	homeFactor := feed.HomeLocalProb / feed.Tuple.Prob * (1 - feed.Tuple.Prob)
	pruned := 0
	kept := s.sky[:0]
	for _, c := range s.sky {
		if feed.Tuple.Dominates(c.Tuple, f.dims) && c.LocalProb*homeFactor < f.q {
			pruned++
			continue
		}
		kept = append(kept, c)
	}
	s.sky = kept
	s.pruned += pruned
	resp.CrossProb, resp.Pruned, resp.SessionPruned = s.cross(feed.Tuple), pruned, s.pruned
}

func rep(id uncertain.TupleID, x, y, prob, local float64) msg.Representative {
	return msg.Representative{
		Tuple:     uncertain.Tuple{ID: id, Point: geom.Point{x, y}, Prob: prob},
		LocalProb: local,
	}
}

// hotelSites reproduces Table 2a of the §5.3 worked example (q = 0.3):
// the sorted local skylines of the Qingdao, Shanghai and Xiamen sites.
// Tuples 1..3 — the eventual answer (6,6), (8,4), (3,8) — meet the
// example's "suppose P_g-sky > 0.3" assumption; every other tuple gets a
// strongly dominated cross factor.
func hotelSites() *fakeSites {
	cross := func(t uncertain.Tuple) float64 {
		if t.ID <= 3 {
			return 1
		}
		return 0.1
	}
	return &fakeSites{q: 0.3, sites: []*fakeSite{
		{cross: cross, sky: []msg.Representative{rep(1, 6, 6, 0.7, 0.65), rep(2, 8, 4, 0.8, 0.6), rep(3, 3, 8, 0.8, 0.5)}},
		{cross: cross, sky: []msg.Representative{rep(4, 6.5, 7, 0.8, 0.65), rep(5, 4, 9, 0.6, 0.6), rep(6, 9, 5, 0.7, 0.6)}},
		{cross: cross, sky: []msg.Representative{rep(7, 6.4, 7.5, 0.9, 0.8), rep(8, 3.5, 11, 0.7, 0.7), rep(9, 10, 4.5, 0.7, 0.7)}},
	}}
}

// seededParts draws m partitions of n two-dimensional tuples each.
func seededParts(seed int64, m, n int) []uncertain.DB { return drawParts(seed, m, n, 2) }

// drawParts draws m partitions of n d-dimensional tuples each.
func drawParts(seed int64, m, n, d int) []uncertain.DB {
	rng := rand.New(rand.NewSource(seed))
	parts := make([]uncertain.DB, m)
	id := uncertain.TupleID(0)
	for i := range parts {
		for k := 0; k < n; k++ {
			id++
			p := make(geom.Point, d)
			for j := range p {
				p[j] = rng.Float64()
			}
			parts[i] = append(parts[i], uncertain.Tuple{ID: id, Point: p, Prob: 0.05 + 0.95*rng.Float64()})
		}
	}
	return parts
}

// dbSites backs each fake site with a real partition: brute-force local
// skylines and eq. 9 factors.
func dbSites(parts []uncertain.DB, q float64) *fakeSites { return subspaceSites(parts, q, nil) }

// subspaceSites is dbSites with dominance restricted to dims.
func subspaceSites(parts []uncertain.DB, q float64, dims []int) *fakeSites {
	f := &fakeSites{q: q, dims: dims}
	for _, db := range parts {
		s := &fakeSite{db: db, cross: func(t uncertain.Tuple) float64 { return db.CrossSkyProb(t, dims) }}
		for _, m := range db.Skyline(q, dims) {
			s.sky = append(s.sky, msg.Representative{Tuple: m.Tuple, LocalProb: m.Prob})
		}
		f.sites = append(f.sites, s)
	}
	return f
}

// line renders one step compactly, for exact-sequence assertions.
func line(s Step) string {
	switch s.Kind {
	case StepBegin:
		return "begin " + s.Phase.String()
	case StepEnd:
		return "end " + s.Phase.String()
	}
	e := s.Event
	switch e.Kind {
	case EventPrune:
		return fmt.Sprintf("%d prune %d", e.Iteration, e.Count)
	case EventRefill:
		return fmt.Sprintf("%d refill s%d n=%d", e.Iteration, e.Site, e.Count)
	}
	return fmt.Sprintf("%d %s s%d t%d p=%.4g", e.Iteration, e.Kind, e.Site, e.Tuple.ID, e.Prob)
}

func collect(steps *[]Step) func(Step) { return func(s Step) { *steps = append(*steps, s) } }

// hotelSteps is the whole e-DSUD run over hotelSites, one step per line
// (see line). Round 1: (6,6) dominates both other heads, so their
// Corollary-2 bounds fall below q and they are expunged, (6,6) survives
// and is broadcast, and the victims' refills ride its broadcast: they are
// admitted after the home site's own refill. Rounds 3 and 4 do the same to
// (10,4.5), which (8,4) dominates, and to (4,9), which (3,8) dominates;
// (8,4)'s feedback prunes (9,5) at its site first, so that refill comes
// back exhausted.
const hotelSteps = `begin to-server
0 to-server s0 t1 p=0.65
0 to-server s1 t4 p=0.65
0 to-server s2 t7 p=0.8
end to-server
begin feedback-select
1 expunge s1 t4 p=0.1811
1 expunge s2 t7 p=0.2229
1 feedback-select s0 t1 p=0.65
end feedback-select
begin server-delivery
end server-delivery
begin local-pruning
1 broadcast s0 t1 p=0.65
1 report s0 t1 p=0.65
end local-pruning
begin to-server
1 refill s0 n=1
1 to-server s0 t2 p=0.6
1 refill s1 n=1
1 to-server s1 t5 p=0.6
1 refill s2 n=1
1 to-server s2 t8 p=0.7
end to-server
begin feedback-select
2 feedback-select s2 t8 p=0.7
end feedback-select
begin server-delivery
end server-delivery
begin local-pruning
2 broadcast s2 t8 p=0.7
2 reject s2 t8 p=0.007
end local-pruning
begin to-server
2 refill s2 n=1
2 to-server s2 t9 p=0.7
end to-server
begin feedback-select
3 expunge s2 t9 p=0.105
3 feedback-select s0 t2 p=0.6
end feedback-select
begin server-delivery
end server-delivery
begin local-pruning
3 broadcast s0 t2 p=0.6
3 prune 1
3 report s0 t2 p=0.6
end local-pruning
begin to-server
3 refill s0 n=1
3 to-server s0 t3 p=0.5
3 refill s2 n=0
end to-server
begin feedback-select
4 expunge s1 t5 p=0.075
4 feedback-select s0 t3 p=0.5
end feedback-select
begin server-delivery
end server-delivery
begin local-pruning
4 broadcast s0 t3 p=0.5
4 report s0 t3 p=0.5
end local-pruning
begin to-server
4 refill s0 n=0
4 refill s1 n=0
end to-server`

// The §5.3 hotel example, step by step: e-DSUD reports (6,6), (8,4) and
// (3,8) in the paper's order, and the Observation-2 victims (6.5,7) and
// (6.4,7.5) are expunged without ever being broadcast.
func TestHotelExampleSteps(t *testing.T) {
	var steps []Step
	out, err := Run(context.Background(), hotelSites(), Options{Threshold: 0.3, Enhanced: true}, collect(&steps))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(steps))
	for i, s := range steps {
		got[i] = line(s)
	}
	if want := strings.Split(hotelSteps, "\n"); !slices.Equal(got, want) {
		t.Fatalf("steps:\n%s\nwant:\n%s", strings.Join(got, "\n"), hotelSteps)
	}
	var reported []uncertain.TupleID
	for _, s := range steps {
		switch e := s.Event; {
		case s.Kind != StepEvent:
		case e.Kind == EventBroadcast && (e.Tuple.ID == 4 || e.Tuple.ID == 7):
			t.Errorf("victim %d was broadcast", e.Tuple.ID)
		case e.Kind == EventReport:
			reported = append(reported, e.Tuple.ID)
		}
	}
	if !slices.Equal(reported, []uncertain.TupleID{1, 2, 3}) {
		t.Errorf("reported %v, want (6,6), (8,4), (3,8): tuples 1, 2, 3 in that order", reported)
	}
	wantSky := map[uncertain.TupleID]float64{1: 0.65, 2: 0.6, 3: 0.5}
	if len(out.Skyline) != len(wantSky) {
		t.Fatalf("skyline %v, want the example's three tuples", out.Skyline)
	}
	for i, m := range out.Skyline {
		if math.Abs(m.Prob-wantSky[m.Tuple.ID]) > 1e-12 {
			t.Errorf("member %d has P=%v, want %v", m.Tuple.ID, m.Prob, wantSky[m.Tuple.ID])
		}
		if i > 0 && out.Skyline[i-1].Prob < m.Prob {
			t.Errorf("skyline not in descending order: %v", out.Skyline)
		}
	}
	if !reflect.DeepEqual(out.Sites, map[uncertain.TupleID]int{1: 0, 2: 0, 3: 0}) {
		t.Errorf("home sites %v", out.Sites)
	}
	if want := (Tally{Iterations: 4, Broadcasts: 4, Expunged: 4, Refills: 8, PrunedLocal: 1}); out.Tally != want {
		t.Errorf("tallies %+v, want %+v", out.Tally, want)
	}
}

// recount rebuilds an Outcome from the step stream alone, checking the
// stream's grammar on the way: balanced phases, every event inside the
// phase its step names.
func recount(t *testing.T, m int, steps []Step) *Outcome {
	t.Helper()
	out := &Outcome{Sites: map[uncertain.TupleID]int{}, PerSite: make([]SiteTally, m)}
	var open []Phase
	for i, s := range steps {
		switch s.Kind {
		case StepBegin:
			open = append(open, s.Phase)
			if s.Phase == PhaseFeedbackSelect {
				out.Iterations++
			}
			continue
		case StepEnd:
			if len(open) == 0 || open[len(open)-1] != s.Phase {
				t.Fatalf("step %d: end %v with %v open", i, s.Phase, open)
			}
			open = open[:len(open)-1]
			continue
		}
		if len(open) == 0 || open[len(open)-1] != s.Phase {
			t.Fatalf("step %d: event %v says phase %v, open %v", i, s.Event, s.Phase, open)
		}
		e := s.Event
		if e.Iteration != out.Iterations {
			t.Fatalf("step %d: event stamped iteration %d during %d", i, e.Iteration, out.Iterations)
		}
		switch e.Kind {
		case EventToServer:
			out.PerSite[e.Site].Shipped++
		case EventExpunge:
			out.Expunged++
		case EventBroadcast:
			out.Broadcasts++
			out.FeedbackLocal = append(out.FeedbackLocal, e.Prob)
		case EventPrune:
			out.PrunedLocal += e.Count
		case EventRefill:
			out.Refills++
		case EventReport:
			out.Skyline = append(out.Skyline, uncertain.SkylineMember{Tuple: e.Tuple, Prob: e.Prob})
			out.Sites[e.Tuple.ID] = e.Site
		}
	}
	if len(open) != 0 {
		t.Fatalf("stream ended with %v open", open)
	}
	uncertain.SortMembers(out.Skyline)
	return out
}

// One seeded query per algorithm against brute-force sites: the answer is
// the oracle's, the run is reproducible step for step, and the outcome's
// tallies are exactly what the step stream says — by an independent
// recount and by Tally.Observe — so a subscriber needs nothing else.
func TestSeededRunMatchesOracleAndStream(t *testing.T) {
	const q = 0.3
	parts := seededParts(42, 4, 60)
	var oracle []uncertain.SkylineMember
	for _, tu := range uncertain.Union(parts) {
		if p := uncertain.GlobalSkyProb(tu, parts, nil); p >= q {
			oracle = append(oracle, uncertain.SkylineMember{Tuple: tu, Prob: p})
		}
	}
	uncertain.SortMembers(oracle)
	for _, enhanced := range []bool{false, true} {
		var steps, again []Step
		out, err := Run(context.Background(), dbSites(parts, q), Options{Threshold: q, Enhanced: enhanced}, collect(&steps))
		if err != nil {
			t.Fatal(err)
		}
		if !uncertain.MembersEqual(out.Skyline, oracle, 1e-12) {
			t.Fatalf("enhanced=%v: skyline %v, oracle %v", enhanced, out.Skyline, oracle)
		}
		if enhanced == (out.Expunged == 0) {
			t.Errorf("enhanced=%v expunged %d", enhanced, out.Expunged)
		}
		if _, err := Run(context.Background(), dbSites(parts, q), Options{Threshold: q, Enhanced: enhanced}, collect(&again)); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(steps, again) {
			t.Fatalf("enhanced=%v: two runs over the same sites diverge", enhanced)
		}

		got := recount(t, len(parts), steps)
		var observed Tally
		for _, s := range steps {
			observed.Observe(s)
		}
		if got.Tally != out.Tally || observed != out.Tally {
			t.Errorf("enhanced=%v: tallies recounted %+v, observed %+v, outcome %+v", enhanced, got.Tally, observed, out.Tally)
		}
		if !reflect.DeepEqual(got.Skyline, out.Skyline) || !reflect.DeepEqual(got.Sites, out.Sites) {
			t.Errorf("enhanced=%v: answer recounted from reports differs from the outcome", enhanced)
		}
		if !slices.Equal(got.FeedbackLocal, out.FeedbackLocal) {
			t.Errorf("enhanced=%v: feedback sequence %v, outcome %v", enhanced, got.FeedbackLocal, out.FeedbackLocal)
		}
		for i := range out.PerSite {
			if got.PerSite[i].Shipped != out.PerSite[i].Shipped {
				t.Errorf("enhanced=%v site %d: %d to-server events, outcome shipped %d", enhanced, i, got.PerSite[i].Shipped, out.PerSite[i].Shipped)
			}
		}
	}
}

// The pinned e-DSUD run: any change to the selection, expunge or refill
// order moves these numbers.
func TestSeededEDSUDPinned(t *testing.T) {
	var steps []Step
	out, err := Run(context.Background(), dbSites(seededParts(42, 4, 60), 0.3), Options{Threshold: 0.3, Enhanced: true}, collect(&steps))
	if err != nil {
		t.Fatal(err)
	}
	var order []uncertain.TupleID
	for _, s := range steps {
		if s.Event.Kind == EventReport {
			order = append(order, s.Event.Tuple.ID)
		}
	}
	if want := (Tally{Iterations: 5, Broadcasts: 5, Expunged: 7, Refills: 12, PrunedLocal: 10}); out.Tally != want {
		t.Errorf("tallies %+v, want %+v", out.Tally, want)
	}
	if len(steps) != 91 {
		t.Errorf("%d steps, want 91", len(steps))
	}
	if want := []uncertain.TupleID{34, 98, 40, 104, 126}; !slices.Equal(order, want) {
		t.Errorf("report order %v, want %v", order, want)
	}
	if want := []SiteTally{{5, 0}, {2, 0}, {3, 5}, {2, 5}}; !slices.Equal(out.PerSite, want) {
		t.Errorf("per-site tallies %+v, want %+v", out.PerSite, want)
	}
}

// The deferred refill against the oracle, over brute-force fake sites and
// over real site engines: seeds 1–5, m ∈ {2, 3, 4, 8, 10}, q ∈ {0.1, 0.3,
// 0.5}, the full space and [0,2]. Every run returns exactly the oracle's
// answer, probabilities included, and checkFanouts holds: every expunged
// site refills exactly once, by its evaluate in the next broadcast or in a
// standalone wave. A plain run never needs the wave — the scan always
// leaves the head no other head dominates, whose bound is its local
// probability — so each configuration also runs with MaxResults = 2, whose
// second round keeps it; both paths must occur.
func TestDeferredRefillOracleSweep(t *testing.T) {
	deferred, waves := 0, 0
	for seed := int64(1); seed <= 5; seed++ {
		for _, m := range []int{2, 3, 4, 8, 10} {
			parts := drawParts(seed, m, 30, 3)
			for _, q := range []float64{0.1, 0.3, 0.5} {
				for _, dims := range [][]int{nil, {0, 2}} {
					oracle := map[uncertain.TupleID]float64{}
					for _, tu := range uncertain.Union(parts) {
						if p := uncertain.GlobalSkyProb(tu, parts, dims); p >= q {
							oracle[tu.ID] = p
						}
					}
					for _, max := range []int{0, 2} {
						engines := make([]*site.Engine, m)
						for i, part := range parts {
							engines[i] = site.New(i, part, 3, 0)
						}
						for _, f := range []*fakeSites{subspaceSites(parts, q, dims), {q: q, dims: dims, engines: engines}} {
							name := fmt.Sprintf("seed %d m=%d q=%v dims=%v max=%d engines=%v", seed, m, q, dims, max, f.engines != nil)
							var steps []Step
							opts := Options{Threshold: q, Dims: dims, Enhanced: true, MaxResults: max}
							out, err := Run(context.Background(), f, opts, collect(&steps))
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							want := len(oracle)
							if max > 0 {
								want = min(want, max)
							}
							if len(out.Skyline) != want {
								t.Fatalf("%s: %d answers, want %d", name, len(out.Skyline), want)
							}
							for _, a := range out.Skyline {
								if p, ok := oracle[a.Tuple.ID]; !ok || math.Abs(p-a.Prob) > 1e-9 {
									t.Fatalf("%s: answer %v, oracle has P=%v (%v)", name, a, p, ok)
								}
							}
							waves += checkFanouts(t, f, steps)
							for _, reqs := range f.fanouts {
								for _, r := range reqs {
									if r.Refill {
										deferred++
									}
								}
							}
						}
					}
				}
			}
		}
	}
	if deferred == 0 || waves == 0 {
		t.Errorf("%d deferred refills and %d standalone waves; the sweep must exercise both", deferred, waves)
	}
}

// checkFanouts walks a run's step stream beside the fan-outs its fake
// saw and fails unless they tell one story: Init to every site; per
// Server-Delivery phase one fan-out carrying the feedback to every site
// but the tuple's home, whose slot holds the Next for its refill or — when
// MaxResults held that back — nothing, the Next then following the verdict
// alone; and every expunged site refilled exactly once, either by the
// Refill bit of its evaluate in the next broadcast (a deferred victim,
// announced without a refill nested after it) or, per wave of victims
// that left no survivor, by one fan-out of Nexts to exactly their sites.
// It returns the number of standalone waves.
func checkFanouts(t *testing.T, f *fakeSites, steps []Step) (waves int) {
	t.Helper()
	sent := 0
	pop := func() []msg.Request {
		if sent == len(f.fanouts) {
			t.Fatalf("the stream implies more than the %d fan-outs sent", sent)
		}
		sent++
		reqs := f.fanouts[sent-1]
		for i, r := range reqs {
			if r.Session != 0 || !reflect.DeepEqual(r.Query, msg.Query{}) || r.Seq != 0 || r.Client != 0 || r.Timed {
				t.Fatalf("fan-out %d, site %d: the engine bound %+v, which is the Sites' job", sent, i, r)
			}
		}
		return reqs
	}
	for i, r := range pop() {
		if r.Kind != msg.KindInit {
			t.Fatalf("first fan-out, site %d: %v, want init", i, r.Kind)
		}
	}
	owed := map[int]bool{}     // sites sent a request for a refill not announced yet
	deferred := map[int]bool{} // sites expunged whose refill rides the next broadcast
	for n, s := range steps {
		switch {
		case s.Kind == StepBegin && s.Phase == PhaseServerDelivery:
			reqs, home := pop(), -1
			for _, r := range reqs {
				if r.Kind == msg.KindEvaluate {
					home = f.home[r.Feed.Tuple.ID]
				}
			}
			if home < 0 || len(owed) != 0 {
				t.Fatalf("step %d: broadcast %+v with refills %v outstanding", n, reqs, owed)
			}
			for i, r := range reqs {
				switch {
				case i != home && r.Kind == msg.KindEvaluate && f.home[r.Feed.Tuple.ID] == home:
					if r.Refill != deferred[i] {
						t.Fatalf("step %d: broadcast sends site %d refill=%v, deferred victims %v", n, i, r.Refill, deferred)
					}
					if r.Refill {
						owed[i] = true
					}
				case i == home && r.Kind == msg.KindNext:
					owed[i] = true
				case i == home && r.Kind == 0:
				default:
					t.Fatalf("step %d: broadcast of site %d's tuple sends site %d %v", n, home, i, r.Kind)
				}
			}
			clear(deferred)
		case s.Kind == StepEvent && s.Event.Kind == EventExpunge && !owed[s.Event.Site]:
			if deferred[s.Event.Site] {
				t.Fatalf("step %d: site %d expunged twice before one refill", n, s.Event.Site)
			}
			if next := steps[n+1]; next.Kind != StepBegin || next.Phase != PhaseToServer {
				deferred[s.Event.Site] = true
				continue
			}
			if len(owed) != 0 || len(deferred) != 0 {
				t.Fatalf("step %d: a new wave with refills %v outstanding and %v deferred", n, owed, deferred)
			}
			waves++
			for i, r := range pop() {
				if r.Kind == msg.KindNext {
					owed[i] = true
				} else if r.Kind != 0 {
					t.Fatalf("step %d: expunge wave sends site %d %v", n, i, r.Kind)
				}
			}
			if !owed[s.Event.Site] {
				t.Fatalf("step %d: site %d expunged, its wave asked %v", n, s.Event.Site, owed)
			}
		case s.Kind == StepEvent && s.Event.Kind == EventRefill && !owed[s.Event.Site]:
			for i, r := range pop() {
				if (i == s.Event.Site) != (r.Kind == msg.KindNext) || (r.Kind != msg.KindNext && r.Kind != 0) {
					t.Fatalf("step %d: held-back refill of site %d sends site %d %v", n, s.Event.Site, i, r.Kind)
				}
			}
		case s.Kind == StepEvent && s.Event.Kind == EventRefill:
			delete(owed, s.Event.Site)
		}
	}
	if sent != len(f.fanouts) || len(owed) != 0 || len(deferred) != 0 {
		t.Fatalf("%d of %d fan-outs accounted for, refills %v never announced, %v never sent", sent, len(f.fanouts), owed, deferred)
	}
	return waves
}

// Every wait of the loop is one fan-out: Init, one per broadcast (the home
// site's Next and the expunged candidates' refills riding it) and one per
// standalone wave, where the loop used to wait once more per refill. Plain
// e-DSUD needs no wave at all; a round whose report could meet MaxResults
// sends its victims' Nexts as a wave of their own.
func TestOneFanoutPerWait(t *testing.T) {
	for _, tc := range []struct {
		name         string
		sites        *fakeSites
		enhanced     bool
		max          int
		waits, waves int
	}{
		{"hotel e-DSUD", hotelSites(), true, 0, 5, 0},
		{"seeded DSUD", dbSites(seededParts(42, 4, 60), 0.3), false, 0, 12, 0},
		{"seeded e-DSUD", dbSites(seededParts(42, 4, 60), 0.3), true, 0, 6, 0},
		{"seeded e-DSUD, 3 results", dbSites(seededParts(42, 4, 60), 0.3), true, 3, 9, 5},
	} {
		var steps []Step
		out, err := Run(context.Background(), tc.sites, Options{Threshold: 0.3, Enhanced: tc.enhanced, MaxResults: tc.max}, collect(&steps))
		if err != nil {
			t.Fatal(err)
		}
		waves, waits := checkFanouts(t, tc.sites, steps), len(tc.sites.fanouts)
		if waits != tc.waits || waves != tc.waves || waits != 1+out.Broadcasts+waves {
			t.Errorf("%s: %d waits over %d broadcasts and %d waves, want %d waits, %d waves", tc.name, waits, out.Broadcasts, waves, tc.waits, tc.waves)
		}
		if serial := 1 + out.Broadcasts + out.Refills; waits >= serial {
			t.Errorf("%s: %d waits, no fewer than the %d of one wait per refill", tc.name, waits, serial)
		}
	}
}

// topKSteps is an e-DSUD top-2 run (seed 293, four sites, q = 0.1) recorded
// from the loop that refilled one candidate per wait. In round 3 the wave
// {t112, t135} brings back t99, which stays, and t139, already below the
// working threshold 0.5381: it and then its own refill t138 are expunged
// as further waves before the bounds are recomputed, and t99 keeps its
// place in the queue ahead of them.
const topKSteps = `begin to-server
0 to-server s0 t29 p=0.797
0 to-server s1 t67 p=0.8943
0 to-server s2 t112 p=0.8562
0 to-server s3 t141 p=0.9376
end to-server
begin feedback-select
1 feedback-select s3 t141 p=0.9376
end feedback-select
begin server-delivery
end server-delivery
begin local-pruning
1 broadcast s3 t141 p=0.9376
1 prune 14
1 report s3 t141 p=0.9376
end local-pruning
begin to-server
1 refill s3 n=1
1 to-server s3 t135 p=0.8585
end to-server
begin feedback-select
2 feedback-select s1 t67 p=0.8943
end feedback-select
begin server-delivery
end server-delivery
begin local-pruning
2 broadcast s1 t67 p=0.8943
2 report s1 t67 p=0.5381
end local-pruning
begin to-server
2 refill s1 n=1
2 to-server s1 t65 p=0.7974
end to-server
begin feedback-select
3 expunge s2 t112 p=0.1734
begin to-server
3 refill s2 n=1
3 to-server s2 t99 p=0.7727
end to-server
3 expunge s3 t135 p=0.1739
begin to-server
3 refill s3 n=1
3 to-server s3 t139 p=0.3983
end to-server
3 expunge s3 t139 p=0.3983
begin to-server
3 refill s3 n=1
3 to-server s3 t138 p=0.3002
end to-server
3 expunge s3 t138 p=0.3002
begin to-server
3 refill s3 n=0
end to-server
3 feedback-select s1 t65 p=0.7974
end feedback-select
begin server-delivery
end server-delivery
begin local-pruning
3 broadcast s1 t65 p=0.7974
3 prune 1
3 report s1 t65 p=0.7974
end local-pruning
begin to-server
3 refill s1 n=0
end to-server
begin feedback-select
4 expunge s0 t29 p=0.797
begin to-server
4 refill s0 n=1
4 to-server s0 t34 p=0.4854
end to-server
4 expunge s2 t99 p=0.7727
begin to-server
4 refill s2 n=0
end to-server
4 expunge s0 t34 p=0.4854
begin to-server
4 refill s0 n=0
end to-server
end feedback-select`

// Waves reproduce the one-at-a-time expunge scan step for step, including
// a refill that is expunged by the scan that fetched it.
func TestTopKReExpungeSteps(t *testing.T) {
	sites := dbSites(seededParts(293, 4, 40), 0.1)
	var steps []Step
	out, err := Run(context.Background(), sites, Options{Threshold: 0.1, Enhanced: true, TopK: 2}, collect(&steps))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(steps))
	for i, s := range steps {
		got[i] = line(s)
	}
	if want := strings.Split(topKSteps, "\n"); !slices.Equal(got, want) {
		t.Fatalf("steps:\n%s\nwant:\n%s", strings.Join(got, "\n"), topKSteps)
	}
	if waves := checkFanouts(t, sites, steps); waves != 5 || len(sites.fanouts) != 9 || out.Refills != 10 {
		t.Errorf("%d waves in %d waits for %d refills, want 5 in 9 for 10", waves, len(sites.fanouts), out.Refills)
	}
}

// When this round's report could be the last one asked for, the home
// site's Next waits for the verdict and that round's expunged candidates
// refill in a wave of their own, before the feedback is picked: no site
// ships a tuple that the answer never needed. For DSUD and for a first
// round that is already the last, the tallies are those of the loop that
// refilled one candidate per wait; with MaxResults 3, e-DSUD's first two
// rounds defer their victims' refills to their broadcasts.
func TestMaxResultsShipsNoSpeculativeTuple(t *testing.T) {
	for _, tc := range []struct {
		enhanced bool
		max      int
		tally    Tally
		perSite  []SiteTally
	}{
		{false, 1, Tally{Iterations: 1, Broadcasts: 1, PrunedLocal: 2}, []SiteTally{{1, 0}, {1, 0}, {1, 1}, {1, 1}}},
		{false, 2, Tally{Iterations: 3, Broadcasts: 3, Refills: 2, PrunedLocal: 10}, []SiteTally{{3, 0}, {1, 0}, {1, 6}, {1, 4}}},
		{true, 1, Tally{Iterations: 1, Broadcasts: 1, Expunged: 5, Refills: 5, PrunedLocal: 1}, []SiteTally{{1, 0}, {1, 0}, {6, 0}, {1, 1}}},
		{true, 3, Tally{Iterations: 3, Broadcasts: 3, Expunged: 8, Refills: 10, PrunedLocal: 7}, []SiteTally{{3, 0}, {2, 0}, {3, 5}, {5, 2}}},
	} {
		sites := dbSites(seededParts(42, 4, 60), 0.3)
		var steps []Step
		out, err := Run(context.Background(), sites, Options{Threshold: 0.3, Enhanced: tc.enhanced, MaxResults: tc.max}, collect(&steps))
		if err != nil {
			t.Fatal(err)
		}
		checkFanouts(t, sites, steps)
		if len(out.Skyline) != tc.max || out.Tally != tc.tally || !slices.Equal(out.PerSite, tc.perSite) {
			t.Errorf("enhanced=%v max=%d: %d answers, %+v, %+v; want %+v, %+v", tc.enhanced, tc.max, len(out.Skyline), out.Tally, out.PerSite, tc.tally, tc.perSite)
		}
	}
}

// The Baseline solves centrally: two phases, one report per answer tuple,
// the whole partitions shipped.
func TestBaselineOutcomeAndSteps(t *testing.T) {
	const q = 0.3
	parts := seededParts(7, 3, 40)
	var steps []Step
	out, err := Baseline(context.Background(), dbSites(parts, q), Options{Threshold: q}, collect(&steps))
	if err != nil {
		t.Fatal(err)
	}
	if want := uncertain.Union(parts).Skyline(q, nil); !uncertain.MembersEqual(out.Skyline, want, 1e-12) {
		t.Fatalf("skyline %v, want %v", out.Skyline, want)
	}
	got := recount(t, len(parts), steps)
	if !reflect.DeepEqual(got.Skyline, out.Skyline) || got.Tally != (Tally{}) || out.Tally != (Tally{}) {
		t.Errorf("stream recount %+v, outcome %+v", got, out)
	}
	if n := len(out.Skyline) + 4; len(steps) != n || line(steps[1]) != "end to-server" || line(steps[2]) != "begin local-pruning" {
		t.Errorf("%d steps, want to-server, then %d reports inside local-pruning", len(steps), len(out.Skyline))
	}
	for i, p := range parts {
		if out.PerSite[i].Shipped != int64(len(p)) {
			t.Errorf("site %d shipped %d of %d", i, out.PerSite[i].Shipped, len(p))
		}
	}
	// MaxResults stops the central solve early.
	out, err = Baseline(context.Background(), dbSites(parts, q), Options{Threshold: q, MaxResults: 1}, nil)
	if err != nil || len(out.Skyline) != 1 {
		t.Errorf("MaxResults=1 returned %d members, err %v", len(out.Skyline), err)
	}
}

// With nobody subscribed a step costs a tally update and one nil test:
// nothing is allocated. This is the guard the query loop relies on when
// it runs unobserved.
func TestStepWithNilCallbackAllocatesNothing(t *testing.T) {
	e := newEngine(hotelSites(), Options{Threshold: 0.3}, nil)
	tu := uncertain.Tuple{ID: 1, Point: geom.Point{1, 2}, Prob: 0.5}
	allocs := testing.AllocsPerRun(1000, func() {
		e.begin(PhaseFeedbackSelect)
		e.event(Event{Kind: EventExpunge, Site: 1, Tuple: tu, Prob: 0.2})
		e.begin(PhaseToServer)
		e.event(Event{Kind: EventRefill, Site: 1, Tuple: tu, Count: 1})
		e.end()
		e.end()
	})
	if allocs != 0 {
		t.Fatalf("unobserved steps allocate %.1f per round, want 0", allocs)
	}
}

// churn is one configuration of the update sweep: real site engines
// bound as a maintainer's view binds them, what each site holds, and the
// answer the update engine maintains, applied as core's maintainer
// applies it.
type churn struct {
	t      *testing.T
	name   string
	f      *fakeSites
	opts   Options
	parts  []uncertain.DB
	answer *serve.Store
}

// newChurn opens a configuration whose answer starts as e-DSUD's, with
// the replicas, when on, pushed the whole answer first.
func newChurn(t *testing.T, name string, parts []uncertain.DB, opts Options) *churn {
	t.Helper()
	engines := make([]*site.Engine, len(parts))
	mirror := make([]uncertain.DB, len(parts))
	for i, part := range parts {
		engines[i], mirror[i] = site.New(i, part.Clone(), 3, 0), part.Clone()
	}
	f := &fakeSites{q: opts.Threshold, dims: opts.Dims, engines: engines}
	out, err := Run(context.Background(), f, Options{Threshold: opts.Threshold, Dims: opts.Dims, Enhanced: true}, nil)
	if err != nil {
		t.Fatalf("%s: initial query: %v", name, err)
	}
	c := &churn{t: t, name: name, f: f, opts: opts, parts: mirror, answer: serve.New(opts.Threshold)}
	entries := make([]serve.Entry, len(out.Skyline))
	adds := make([]msg.Representative, len(out.Skyline))
	for i, m := range out.Skyline {
		entries[i] = serve.Entry{Member: m, Site: out.Sites[m.Tuple.ID], Local: out.Local[m.Tuple.ID]}
		adds[i] = msg.Representative{Tuple: m.Tuple, LocalProb: m.Prob}
	}
	c.answer.Replace(entries, time.Time{})
	f.maint = true
	if opts.Replicas {
		if err := Replicate(context.Background(), f, adds, nil); err != nil {
			t.Fatalf("%s: replicas: %v", name, err)
		}
	}
	c.check("initial answer")
	return c
}

// op applies one update through the engine, checks its fan-outs and the
// answer after it, and returns its fan-outs.
func (c *churn) op(insert bool, home int, tu uncertain.Tuple) (Update, [][]msg.Request) {
	c.t.Helper()
	before := len(c.f.fanouts)
	update, what := Delete, fmt.Sprintf("delete %v at %d", tu, home)
	if insert {
		update, what = Insert, fmt.Sprintf("insert %v at %d", tu, home)
		c.parts[home] = append(c.parts[home], tu)
	} else {
		c.parts[home] = slices.DeleteFunc(c.parts[home], func(x uncertain.Tuple) bool { return x.ID == tu.ID })
	}
	upd, err := update(context.Background(), c.f, c.opts, c.answer, home, tu)
	if err != nil {
		c.t.Fatalf("%s: %s: %v", c.name, what, err)
	}
	c.answer.Apply(upd.Upserts, upd.Removed)
	c.checkShape(what, insert, home, upd, c.f.fanouts[before:])
	c.check(what)
	return upd, c.f.fanouts[before:]
}

// checkShape fails unless an update's fan-outs are its first wave — the
// insert alone, or the delete beside every other site's candidates — then
// at most one wave of batched evaluates, then exactly one replicate wave
// when replicas are on and the membership changed, and none otherwise.
// The engine binds no session or query itself.
func (c *churn) checkShape(what string, insert bool, home int, upd Update, fanouts [][]msg.Request) {
	c.t.Helper()
	fail := func(format string, args ...any) {
		c.t.Helper()
		c.t.Fatalf("%s: %s: "+format+"; fan-outs %+v", append([]any{c.name, what}, append(args, fanouts)...)...)
	}
	replicate := c.opts.Replicas && upd.Changed > 0
	if replicate {
		if len(fanouts) == 0 {
			fail("no replicate wave")
		}
		for _, r := range fanouts[len(fanouts)-1] {
			if r.Kind != msg.KindReplicate {
				fail("last wave is not a replicate to every site")
			}
		}
		fanouts = fanouts[:len(fanouts)-1]
	}
	if len(fanouts) == 0 || len(fanouts) > 2 {
		fail("%d waits before the replicas, want 1 or 2", len(fanouts))
	}
	for k, reqs := range fanouts {
		for i, r := range reqs {
			if r.Session != 0 || !reflect.DeepEqual(r.Query, msg.Query{}) {
				fail("the engine bound %+v, which is the Sites' job", r)
			}
			want := msg.KindEvaluate
			switch {
			case k == 0 && i == home && insert:
				want = msg.KindInsert
			case k == 0 && i == home:
				want = msg.KindDelete
			case k == 0 && insert:
				want = 0
			case k == 0:
				want = msg.KindCandidates
			case len(r.Tuples) == 0:
				want = 0
			}
			if r.Kind != want || (r.Kind == msg.KindEvaluate) != (len(r.Tuples) > 0) {
				fail("wave %d sends site %d %v with %d tuples, want %v", k+1, i, r.Kind, len(r.Tuples), want)
			}
		}
	}
}

// check fails unless the answer is the oracle's at 1e-12, every member
// at its home with its home local probability there at 1e-12 too.
func (c *churn) check(what string) {
	c.t.Helper()
	entries := c.answer.Entries()
	members := make([]uncertain.SkylineMember, len(entries))
	for i, e := range entries {
		members[i] = e.Member
		if !slices.ContainsFunc(c.parts[e.Site], func(x uncertain.Tuple) bool { return x.ID == e.Member.Tuple.ID }) {
			c.t.Fatalf("%s: after %s: member %v is not at its recorded home %d", c.name, what, e.Member, e.Site)
		}
		if want := c.parts[e.Site].SkyProb(e.Member.Tuple, c.opts.Dims); math.Abs(e.Local-want) > 1e-12 {
			c.t.Fatalf("%s: after %s: member %v has local probability %v at site %d, oracle %v", c.name, what, e.Member, e.Local, e.Site, want)
		}
	}
	if want := uncertain.Union(c.parts).Skyline(c.opts.Threshold, c.opts.Dims); !uncertain.MembersEqual(members, want, 1e-12) {
		c.t.Fatalf("%s: after %s: answer %v, oracle %v", c.name, what, members, want)
	}
}

// The update engine against the oracle with no cluster: random
// insert/delete scripts over real site engines, seeds 1–5, m ∈ {2, 3, 8},
// q ∈ {0.2, 0.3, 0.5}, the full space and [0,2], replicas off and on.
// After every op the answer is the oracle's, each member's Local its home
// site's fresh local probability, and the op kept its shape
// (checkShape): a delete or an insert is at most two waits, plus one
// replicate wave when replicas are on. Each configuration ends with a
// metamorphic relation: inserting a fresh dominant tuple and then
// deleting it restores the answer's IDs exactly and its probabilities
// within 1e-12. Whether they come back bit for bit — a division undoing a
// product may land an ulp away — is the business of sound floating-point
// bounds, not of this test.
func TestUpdateEngineOracleSweep(t *testing.T) {
	var evaluated, promoted, evicted, replicated, undone int
	for _, replicas := range []bool{false, true} {
		for seed := int64(1); seed <= 5; seed++ {
			for _, m := range []int{2, 3, 8} {
				parts := drawParts(seed, m, 15, 3)
				nextID := uncertain.TupleID(m*15 + 1)
				for _, q := range []float64{0.2, 0.3, 0.5} {
					for _, dims := range [][]int{nil, {0, 2}} {
						name := fmt.Sprintf("replicas=%v seed %d m=%d q=%v dims=%v", replicas, seed, m, q, dims)
						c := newChurn(t, name, parts, Options{Threshold: q, Dims: dims, Replicas: replicas})
						r := rand.New(rand.NewSource(seed))
						fresh := func(scale, minProb float64) uncertain.Tuple {
							p := geom.Point{scale * r.Float64(), scale * r.Float64(), scale * r.Float64()}
							nextID++
							return uncertain.Tuple{ID: nextID, Point: p, Prob: minProb + (1-minProb)*r.Float64()}
						}
						for op := 0; op < 24; op++ {
							home := r.Intn(m)
							var upd Update
							var fanouts [][]msg.Request
							if len(c.parts[home]) == 0 || r.Intn(2) == 0 {
								scale := 1.0
								if r.Intn(4) == 0 {
									scale = 0.1 // near the origin: rescales and evicts members
								}
								tu := fresh(scale, 0.05)
								if r.Intn(10) == 0 {
									tu.Prob = 1
								}
								upd, fanouts = c.op(true, home, tu)
								evicted += len(upd.Removed)
							} else {
								// Delete a member half the time: that is what promotes.
								victim := c.parts[home][r.Intn(len(c.parts[home]))]
								if entries := c.answer.Entries(); r.Intn(2) == 0 && len(entries) > 0 {
									if e := entries[r.Intn(len(entries))]; e.Site == home {
										victim = e.Member.Tuple
									}
								}
								had := c.answer.Len()
								upd, fanouts = c.op(false, home, victim)
								promoted += c.answer.Len() - had + len(upd.Removed)
							}
							for _, reqs := range fanouts {
								if reqs[0].Kind == msg.KindReplicate {
									replicated++
								}
								if slices.ContainsFunc(reqs, func(req msg.Request) bool { return req.Kind == msg.KindEvaluate }) {
									evaluated++
								}
							}
						}
						// Insert, then delete: the answer comes back.
						before := c.answer.Entries()
						home, u := r.Intn(m), fresh(0.1, 0.3)
						if upd, _ := c.op(true, home, u); upd.Rescored > 0 {
							undone++
						}
						c.op(false, home, u)
						after := c.answer.Entries()
						if len(after) != len(before) {
							t.Fatalf("%s: insert then delete of %v: %d members, want the %d before", name, u, len(after), len(before))
						}
						for _, b := range before {
							k := slices.IndexFunc(after, func(a serve.Entry) bool { return a.Member.Tuple.ID == b.Member.Tuple.ID })
							if k < 0 || after[k].Site != b.Site || math.Abs(after[k].Member.Prob-b.Member.Prob) > 1e-12 {
								t.Fatalf("%s: insert then delete of %v: member %v at %d did not come back (%d)", name, u, b.Member, b.Site, k)
							}
						}
					}
				}
			}
		}
	}
	if evaluated == 0 || promoted == 0 || evicted == 0 || replicated == 0 || undone == 0 {
		t.Errorf("%d evaluate waves, %d promotions, %d evictions, %d replicate waves, %d relations that moved a member; the sweep must exercise each",
			evaluated, promoted, evicted, replicated, undone)
	}
}
