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

	"repro/internal/geom"
	"repro/internal/uncertain"
)

// fakeSite is one in-memory site: its sorted local skyline, an eq. 9
// oracle, and the Observation-2 pruning rule of site.Engine.
type fakeSite struct {
	sky    []Representative
	cross  func(uncertain.Tuple) float64
	db     uncertain.DB
	pruned int
}

// fakeSites implements Sites with no transport, no goroutine and no
// clock: a broadcast visits the sites in index order.
type fakeSites struct {
	q     float64
	sites []*fakeSite
}

func (f *fakeSites) Len() int { return len(f.sites) }

func (f *fakeSites) Call(_ context.Context, i int, req Request) (Response, error) {
	s := f.sites[i]
	switch req.Op {
	case OpInit, OpNext:
		if len(s.sky) == 0 {
			return Response{Exhausted: true}, nil
		}
		head := s.sky[0]
		s.sky = s.sky[1:]
		return Response{Rep: head}, nil
	case OpEvaluate:
		feed := req.Feed
		homeFactor := feed.LocalProb / feed.Tuple.Prob * (1 - feed.Tuple.Prob)
		pruned := 0
		kept := s.sky[:0]
		for _, c := range s.sky {
			if feed.Tuple.Dominates(c.Tuple, nil) && c.LocalProb*homeFactor < f.q {
				pruned++
				continue
			}
			kept = append(kept, c)
		}
		s.sky = kept
		s.pruned += pruned
		return Response{CrossProb: s.cross(feed.Tuple), Pruned: pruned, SessionPruned: s.pruned}, nil
	case OpShipAll:
		return Response{Tuples: s.db}, nil
	}
	return Response{}, fmt.Errorf("fake site %d: unexpected op %d", i, req.Op)
}

func (f *fakeSites) Broadcast(ctx context.Context, skip int, req Request) ([]Response, error) {
	out := make([]Response, len(f.sites))
	for i := range f.sites {
		if i == skip {
			continue
		}
		r, err := f.Call(ctx, i, req)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

func rep(id uncertain.TupleID, x, y, prob, local float64) Representative {
	return Representative{
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
		{cross: cross, sky: []Representative{rep(1, 6, 6, 0.7, 0.65), rep(2, 8, 4, 0.8, 0.6), rep(3, 3, 8, 0.8, 0.5)}},
		{cross: cross, sky: []Representative{rep(4, 6.5, 7, 0.8, 0.65), rep(5, 4, 9, 0.6, 0.6), rep(6, 9, 5, 0.7, 0.6)}},
		{cross: cross, sky: []Representative{rep(7, 6.4, 7.5, 0.9, 0.8), rep(8, 3.5, 11, 0.7, 0.7), rep(9, 10, 4.5, 0.7, 0.7)}},
	}}
}

// seededParts draws m partitions of n two-dimensional tuples each.
func seededParts(seed int64, m, n int) []uncertain.DB {
	rng := rand.New(rand.NewSource(seed))
	parts := make([]uncertain.DB, m)
	id := uncertain.TupleID(0)
	for i := range parts {
		for k := 0; k < n; k++ {
			id++
			parts[i] = append(parts[i], uncertain.Tuple{
				ID:    id,
				Point: geom.Point{rng.Float64(), rng.Float64()},
				Prob:  0.05 + 0.95*rng.Float64(),
			})
		}
	}
	return parts
}

// dbSites backs each fake site with a real partition: brute-force local
// skylines and eq. 9 factors.
func dbSites(parts []uncertain.DB, q float64) *fakeSites {
	f := &fakeSites{q: q}
	for _, db := range parts {
		s := &fakeSite{db: db, cross: func(t uncertain.Tuple) float64 { return db.CrossSkyProb(t, nil) }}
		for _, m := range db.Skyline(q, nil) {
			s.sky = append(s.sky, Representative{Tuple: m.Tuple, LocalProb: m.Prob})
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
// Corollary-2 bounds fall below q and they are expunged mid-selection,
// each refill nesting a to-server phase inside feedback-select; round 5
// does the same to (9,5), which (8,4) dominates.
const hotelSteps = `begin to-server
0 to-server s0 t1 p=0.65
0 to-server s1 t4 p=0.65
0 to-server s2 t7 p=0.8
end to-server
begin feedback-select
1 expunge s1 t4 p=0.1811
begin to-server
1 refill s1 n=1
1 to-server s1 t5 p=0.6
end to-server
1 expunge s2 t7 p=0.2229
begin to-server
1 refill s2 n=1
1 to-server s2 t8 p=0.7
end to-server
1 feedback-select s2 t8 p=0.7
end feedback-select
begin server-delivery
end server-delivery
begin local-pruning
1 broadcast s2 t8 p=0.7
1 reject s2 t8 p=0.007
end local-pruning
begin to-server
1 refill s2 n=1
1 to-server s2 t9 p=0.7
end to-server
begin feedback-select
2 feedback-select s2 t9 p=0.7
end feedback-select
begin server-delivery
end server-delivery
begin local-pruning
2 broadcast s2 t9 p=0.7
2 reject s2 t9 p=0.007
end local-pruning
begin to-server
2 refill s2 n=0
end to-server
begin feedback-select
3 feedback-select s0 t1 p=0.65
end feedback-select
begin server-delivery
end server-delivery
begin local-pruning
3 broadcast s0 t1 p=0.65
3 report s0 t1 p=0.65
end local-pruning
begin to-server
3 refill s0 n=1
3 to-server s0 t2 p=0.6
end to-server
begin feedback-select
4 feedback-select s1 t5 p=0.6
end feedback-select
begin server-delivery
end server-delivery
begin local-pruning
4 broadcast s1 t5 p=0.6
4 reject s1 t5 p=0.006
end local-pruning
begin to-server
4 refill s1 n=1
4 to-server s1 t6 p=0.6
end to-server
begin feedback-select
5 expunge s1 t6 p=0.09
begin to-server
5 refill s1 n=0
end to-server
5 feedback-select s0 t2 p=0.6
end feedback-select
begin server-delivery
end server-delivery
begin local-pruning
5 broadcast s0 t2 p=0.6
5 report s0 t2 p=0.6
end local-pruning
begin to-server
5 refill s0 n=1
5 to-server s0 t3 p=0.5
end to-server
begin feedback-select
6 feedback-select s0 t3 p=0.5
end feedback-select
begin server-delivery
end server-delivery
begin local-pruning
6 broadcast s0 t3 p=0.5
6 report s0 t3 p=0.5
end local-pruning
begin to-server
6 refill s0 n=0
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
	if want := (Tally{Iterations: 6, Broadcasts: 6, Expunged: 3, Refills: 9}); out.Tally != want {
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
	if want := (Tally{Iterations: 5, Broadcasts: 5, Expunged: 14, Refills: 19, PrunedLocal: 3}); out.Tally != want {
		t.Errorf("tallies %+v, want %+v", out.Tally, want)
	}
	if len(steps) != 139 {
		t.Errorf("%d steps, want 139", len(steps))
	}
	if want := []uncertain.TupleID{34, 40, 98, 104, 126}; !slices.Equal(order, want) {
		t.Errorf("report order %v, want %v", order, want)
	}
	if want := []SiteTally{{5, 0}, {2, 0}, {6, 2}, {6, 1}}; !slices.Equal(out.PerSite, want) {
		t.Errorf("per-site tallies %+v, want %+v", out.PerSite, want)
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
