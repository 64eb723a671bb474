package site

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/msg"
	"repro/internal/uncertain"
)

func randomPart(r *rand.Rand, n, d int) uncertain.DB {
	db := make(uncertain.DB, n)
	for i := range db {
		p := make(geom.Point, d)
		for j := range p {
			p[j] = r.Float64()
		}
		db[i] = uncertain.Tuple{ID: uncertain.TupleID(i + 1), Point: p, Prob: 0.05 + 0.95*r.Float64()}
	}
	return db
}

func initSite(t *testing.T, eng *Engine, q float64, dims []int) *msg.Response {
	t.Helper()
	resp, err := eng.Handle(context.Background(), &msg.Request{
		Kind:  msg.KindInit,
		Query: msg.Query{Threshold: q, Dims: dims},
	})
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestInitStreamsLocalSkylineInOrder(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	part := randomPart(r, 200, 3)
	eng := New(0, part, 3, 0)
	want := part.Skyline(0.3, nil)

	resp := initSite(t, eng, 0.3, nil)
	var got []uncertain.SkylineMember
	for !resp.Exhausted {
		got = append(got, uncertain.SkylineMember{Tuple: resp.Rep.Tuple, Prob: resp.Rep.LocalProb})
		var err error
		resp, err = eng.Handle(context.Background(), &msg.Request{Kind: msg.KindNext})
		if err != nil {
			t.Fatal(err)
		}
	}
	if !uncertain.MembersEqual(got, want, 1e-9) {
		t.Fatalf("streamed %d members, oracle %d", len(got), len(want))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Prob > got[i-1].Prob {
			t.Fatal("representatives must stream in descending local probability")
		}
	}
	if eng.LocalSkylineSize() != 0 {
		t.Fatal("size must be zero after exhaustion")
	}
}

// A resumed query's Init: the known members homed here (RemoveIDs) never
// ship, and the snapshot is pruned by each known member homed elsewhere
// (Tuples, at its home local probability) by the evaluate's rule, before
// the first representative is popped.
func TestInitCarriesKnownAnswer(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	part := randomPart(r, 200, 3)
	const q = 0.2
	sky := part.Skyline(q, nil)
	if len(sky) < 6 {
		t.Fatalf("local skyline of %d; pick another seed", len(sky))
	}
	removed := map[uncertain.TupleID]bool{sky[0].Tuple.ID: true, sky[3].Tuple.ID: true}
	known := msg.Representative{Tuple: uncertain.Tuple{ID: 9999, Point: geom.Point{0.05, 0.01, 0.05}, Prob: 0.5}, LocalProb: 0.3}
	homeFactor := known.LocalProb / known.Tuple.Prob * (1 - known.Tuple.Prob)
	var want []uncertain.SkylineMember
	pruned := 0
	for _, m := range sky {
		switch {
		case removed[m.Tuple.ID]:
		case known.Tuple.Dominates(m.Tuple, nil) && uncertain.BoundBelow(m.Prob*homeFactor, q):
			pruned++
		default:
			want = append(want, m)
		}
	}
	if pruned == 0 {
		t.Fatal("the known member prunes nothing; move it")
	}

	eng := New(0, part, 3, 0)
	resp, err := eng.Handle(context.Background(), &msg.Request{
		Kind: msg.KindInit, Query: msg.Query{Threshold: q},
		Tuples: []msg.Representative{known}, RemoveIDs: []uncertain.TupleID{sky[0].Tuple.ID, sky[3].Tuple.ID},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Pruned != pruned || resp.SessionPruned != pruned {
		t.Fatalf("init pruned %d (session %d), want %d", resp.Pruned, resp.SessionPruned, pruned)
	}
	var got []uncertain.SkylineMember
	for !resp.Exhausted {
		got = append(got, uncertain.SkylineMember{Tuple: resp.Rep.Tuple, Prob: resp.Rep.LocalProb})
		if resp, err = eng.Handle(context.Background(), &msg.Request{Kind: msg.KindNext}); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("shipped %v, want %v", got, want)
	}

	bad := known
	bad.Tuple.Prob = 0
	if _, err := eng.Handle(context.Background(), &msg.Request{Kind: msg.KindInit, Query: msg.Query{Threshold: q}, Tuples: []msg.Representative{bad}}); err == nil {
		t.Fatal("init accepted a known member with probability 0")
	}
}

func TestNextBeforeInitFails(t *testing.T) {
	eng := New(0, nil, 2, 0)
	if _, err := eng.Handle(context.Background(), &msg.Request{Kind: msg.KindNext}); !errors.Is(err, ErrNoSession) {
		t.Fatalf("Next before Init: %v, want ErrNoSession", err)
	}
	if _, err := eng.Handle(context.Background(), &msg.Request{Kind: msg.KindCandidates}); err == nil {
		t.Fatal("Candidates before Init must fail")
	}
}

// An evaluate with a refill answers exactly what the evaluate and then a
// Next would: the same factor and prune, then the head of what the prune
// left, until the site is exhausted.
func TestEvaluateRefillIsEvaluateThenNext(t *testing.T) {
	r := rand.New(rand.NewSource(58))
	part := randomPart(r, 300, 3)
	twin, eng := New(0, part, 3, 0), New(0, part, 3, 0)
	const q = 0.2
	dims := []int{0, 2}
	initSite(t, twin, q, dims)
	initSite(t, eng, q, dims)
	ctx := context.Background()
	for k := 0; ; k++ {
		feed := msg.Feedback{Tuple: uncertain.Tuple{ID: uncertain.TupleID(10_000 + k),
			Point: geom.Point{0.3 * r.Float64(), r.Float64(), 0.3 * r.Float64()}, Prob: 0.05 + 0.9*r.Float64()}}
		feed.HomeLocalProb = feed.Tuple.Prob * r.Float64()
		eval, err := twin.Handle(ctx, &msg.Request{Kind: msg.KindEvaluate, Feed: feed})
		if err != nil {
			t.Fatal(err)
		}
		next, err := twin.Handle(ctx, &msg.Request{Kind: msg.KindNext})
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Handle(ctx, &msg.Request{Kind: msg.KindEvaluate, Feed: feed, Refill: true})
		if err != nil {
			t.Fatal(err)
		}
		want := *eval
		want.Rep, want.Exhausted = next.Rep, next.Exhausted
		if !reflect.DeepEqual(*got, want) {
			t.Fatalf("feedback %d: refill answered %+v, evaluate then Next %+v", k, *got, want)
		}
		if got.Exhausted {
			if k < 5 || eng.PrunedTotal() == 0 {
				t.Fatalf("exhausted after %d refills with %d pruned: the feedback never pruned", k, eng.PrunedTotal())
			}
			return
		}
	}
}

// A refill needs the query session whose cursor it pops: without one — a
// session never initialised here, or lost to a restart, even the default
// session 0 — it fails with ErrNoSession, and so does a session evaluate
// and one that carries feedback to prune by; a batch cannot refill.
func TestRefillWithoutSessionFails(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	eng := New(0, randomPart(r, 50, 2), 2, 0)
	feed := msg.Feedback{Tuple: uncertain.Tuple{ID: 99, Point: geom.Point{0.5, 0.5}, Prob: 0.5}, HomeLocalProb: 0.5}
	ctx := context.Background()
	for name, req := range map[string]msg.Request{
		"refill, session 0": {Kind: msg.KindEvaluate, Feed: feed, Refill: true},
		"refill, session 7": {Kind: msg.KindEvaluate, Session: 7, Feed: feed, Refill: true},
		"evaluate, session 7": {Kind: msg.KindEvaluate, Session: 7, Feed: feed,
			Query: msg.Query{Threshold: 0.3, Dims: []int{1}}},
		"carried feedback, session 0": {Kind: msg.KindEvaluate, Feed: feed,
			Tuples: []msg.Representative{{Tuple: feed.Tuple, LocalProb: 0.5}}},
	} {
		if _, err := eng.Handle(ctx, &req); !errors.Is(err, ErrNoSession) {
			t.Errorf("%s: %v, want ErrNoSession", name, err)
		}
	}
	batch := msg.Request{Kind: msg.KindEvaluate, Query: msg.Query{Threshold: 0.3}, Refill: true,
		Tuples: []msg.Representative{{Tuple: feed.Tuple, LocalProb: 0.5}}}
	if _, err := eng.Handle(ctx, &batch); err == nil || !strings.Contains(err.Error(), "without a feedback tuple") {
		t.Errorf("batched refill: %v, want a refusal", err)
	}
}

func TestInitValidatesQuery(t *testing.T) {
	r := rand.New(rand.NewSource(52))
	eng := New(0, randomPart(r, 10, 2), 2, 0)
	bad := []msg.Query{
		{Threshold: 0},
		{Threshold: 2},
		{Threshold: 0.3, Dims: []int{9}},
	}
	for i, q := range bad {
		if _, err := eng.Handle(context.Background(), &msg.Request{Kind: msg.KindInit, Query: q}); err == nil {
			t.Errorf("case %d: query %+v must be rejected", i, q)
		}
	}
}

func TestEvaluateReturnsCrossProbAndPrunes(t *testing.T) {
	part := uncertain.DB{
		{ID: 1, Point: geom.Point{0.5, 0.5}, Prob: 0.9}, // will dominate the feedback target region
		{ID: 2, Point: geom.Point{0.9, 0.9}, Prob: 0.4},
	}
	eng := New(0, part, 2, 0)
	initSite(t, eng, 0.3, nil)

	feed := msg.Feedback{
		Tuple:         uncertain.Tuple{ID: 99, Point: geom.Point{0.8, 0.8}, Prob: 0.5},
		HomeLocalProb: 0.5,
	}
	resp, err := eng.Handle(context.Background(), &msg.Request{Kind: msg.KindEvaluate, Feed: feed})
	if err != nil {
		t.Fatal(err)
	}
	// Only tuple 1 dominates (0.8, 0.8): cross = 1 − 0.9 = 0.1.
	if math.Abs(resp.CrossProb-0.1) > 1e-12 {
		t.Fatalf("CrossProb = %v, want 0.1", resp.CrossProb)
	}
	if got := eng.PrunedTotal(); got != resp.Pruned {
		t.Fatalf("PrunedTotal %d != response %d", got, resp.Pruned)
	}
}

func TestEvaluatePruningIsSound(t *testing.T) {
	// Whatever the feedback, tuples whose true global probability could
	// reach q must survive local pruning. We verify against the
	// mathematical bound directly.
	r := rand.New(rand.NewSource(53))
	for trial := 0; trial < 30; trial++ {
		part := randomPart(r, 120, 2)
		eng := New(0, part, 2, 0)
		const q = 0.3
		initSite(t, eng, q, nil)
		// Skip the first representative (already popped by Init).
		feed := msg.Feedback{
			Tuple: uncertain.Tuple{
				ID:    uncertain.TupleID(10_000 + trial),
				Point: geom.Point{0.2 * r.Float64(), 0.2 * r.Float64()},
				Prob:  0.05 + 0.9*r.Float64(),
			},
		}
		feed.HomeLocalProb = feed.Tuple.Prob * (0.5 + 0.5*r.Float64())
		before := eng.LocalSkylineSize()
		resp, err := eng.Handle(context.Background(), &msg.Request{Kind: msg.KindEvaluate, Feed: feed})
		if err != nil {
			t.Fatal(err)
		}
		if eng.LocalSkylineSize() != before-resp.Pruned {
			t.Fatalf("size bookkeeping off: %d -> %d with %d pruned",
				before, eng.LocalSkylineSize(), resp.Pruned)
		}
		// Survivors dominated by the feedback must have bound >= q.
		homeFactor := feed.HomeLocalProb / feed.Tuple.Prob * (1 - feed.Tuple.Prob)
		for eng.LocalSkylineSize() > 0 {
			next, err := eng.Handle(context.Background(), &msg.Request{Kind: msg.KindNext})
			if err != nil {
				t.Fatal(err)
			}
			if next.Exhausted {
				break
			}
			s := next.Rep
			if feed.Tuple.Dominates(s.Tuple, nil) && s.LocalProb*homeFactor < q {
				t.Fatalf("unpruned tuple %v violates the bound", s)
			}
		}
	}
}

func TestEvaluateRejectsBadFeedback(t *testing.T) {
	r := rand.New(rand.NewSource(54))
	eng := New(0, randomPart(r, 10, 2), 2, 0)
	initSite(t, eng, 0.3, nil)
	bad := msg.Feedback{Tuple: uncertain.Tuple{ID: 1, Point: geom.Point{1}, Prob: 0.5}}
	if _, err := eng.Handle(context.Background(), &msg.Request{Kind: msg.KindEvaluate, Feed: bad}); err == nil {
		t.Fatal("dimension-mismatched feedback must be rejected")
	}
}

func TestShipAll(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	part := randomPart(r, 64, 2)
	eng := New(3, part, 2, 0)
	resp, err := eng.Handle(context.Background(), &msg.Request{Kind: msg.KindShipAll})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Tuples) != len(part) {
		t.Fatalf("shipped %d tuples, want %d", len(resp.Tuples), len(part))
	}
	if eng.ID() != 3 || eng.Len() != len(part) {
		t.Fatalf("ID/Len = %d/%d", eng.ID(), eng.Len())
	}
}

func TestInsertDeleteRoundTrip(t *testing.T) {
	eng := New(0, nil, 2, 0)
	initSite(t, eng, 0.3, nil)
	tu := uncertain.Tuple{ID: 1, Point: geom.Point{0.5, 0.5}, Prob: 0.8}
	resp, err := eng.Handle(context.Background(), &msg.Request{Kind: msg.KindInsert, Tuple: tu})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(resp.Rep.LocalProb-0.8) > 1e-12 {
		t.Fatalf("LocalProb of sole tuple = %v, want its existential probability", resp.Rep.LocalProb)
	}
	dominator := uncertain.Tuple{ID: 2, Point: geom.Point{0.1, 0.1}, Prob: 0.5}
	if _, err := eng.Handle(context.Background(), &msg.Request{Kind: msg.KindInsert, Tuple: dominator}); err != nil {
		t.Fatal(err)
	}
	if eng.Len() != 2 {
		t.Fatalf("Len = %d", eng.Len())
	}
	if _, err := eng.Handle(context.Background(), &msg.Request{Kind: msg.KindDelete, ID: 1, Point: tu.Point}); err != nil {
		t.Fatal(err)
	}
	if eng.Len() != 1 {
		t.Fatalf("Len after delete = %d", eng.Len())
	}
	if _, err := eng.Handle(context.Background(), &msg.Request{Kind: msg.KindDelete, ID: 1, Point: tu.Point}); err == nil {
		t.Fatal("deleting a missing tuple must fail")
	}
	if _, err := eng.Handle(context.Background(), &msg.Request{
		Kind:  msg.KindInsert,
		Tuple: uncertain.Tuple{ID: 3, Point: geom.Point{1}, Prob: 0.5},
	}); err == nil {
		t.Fatal("dimension-mismatched insert must be rejected")
	}
}

func TestCandidatesFindsPromotions(t *testing.T) {
	// One strong dominator suppresses two tuples; deleting it must surface
	// them as candidates.
	part := uncertain.DB{
		{ID: 1, Point: geom.Point{0.1, 0.1}, Prob: 0.95},
		{ID: 2, Point: geom.Point{0.5, 0.5}, Prob: 0.8},
		{ID: 3, Point: geom.Point{0.6, 0.4}, Prob: 0.7},
		{ID: 4, Point: geom.Point{0.9, 0.9}, Prob: 0.9}, // dominated by everything
	}
	eng := New(0, part, 2, 0)
	initSite(t, eng, 0.3, nil)
	dominator := part[0]
	if _, err := eng.Handle(context.Background(), &msg.Request{
		Kind: msg.KindDelete, ID: dominator.ID, Point: dominator.Point,
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := eng.Handle(context.Background(), &msg.Request{
		Kind:  msg.KindCandidates,
		Feed:  msg.Feedback{Tuple: dominator},
		Query: msg.Query{Threshold: 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := map[uncertain.TupleID]float64{}
	for _, cand := range resp.Tuples {
		got[cand.Tuple.ID] = cand.LocalProb
	}
	// Fresh local probabilities: t2 = 0.8, t3 = 0.7, t4 = 0.9×0.2×0.3 =
	// 0.054 (< q, excluded).
	if len(got) != 2 {
		t.Fatalf("candidates = %v, want tuples 2 and 3", got)
	}
	if math.Abs(got[2]-0.8) > 1e-12 || math.Abs(got[3]-0.7) > 1e-12 {
		t.Fatalf("candidate probabilities wrong: %v", got)
	}
}

// A delete that names a query answers, after applying itself, what
// Candidates answers right after a query-less delete; a query-less delete
// answers nothing.
func TestDeleteWithQueryAnswersCandidates(t *testing.T) {
	part := uncertain.DB{
		{ID: 1, Point: geom.Point{0.1, 0.1}, Prob: 0.95},
		{ID: 2, Point: geom.Point{0.5, 0.5}, Prob: 0.8},
		{ID: 3, Point: geom.Point{0.6, 0.4}, Prob: 0.7},
		{ID: 4, Point: geom.Point{0.9, 0.9}, Prob: 0.9},
	}
	q, gone := msg.Query{Threshold: 0.3}, part[0]
	named, bare := New(0, part, 2, 0), New(0, part, 2, 0)
	handle := func(eng *Engine, req *msg.Request) *msg.Response {
		t.Helper()
		resp, err := eng.Handle(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	got := handle(named, &msg.Request{Kind: msg.KindDelete, ID: gone.ID, Point: gone.Point, Query: q})
	if resp := handle(bare, &msg.Request{Kind: msg.KindDelete, ID: gone.ID, Point: gone.Point}); resp.Tuples != nil {
		t.Fatalf("a query-less delete answered %v", resp.Tuples)
	}
	want := handle(bare, &msg.Request{Kind: msg.KindCandidates, Feed: msg.Feedback{Tuple: gone}, Query: q})
	if len(got.Tuples) != 2 || !reflect.DeepEqual(got.Tuples, want.Tuples) || named.Len() != 3 {
		t.Fatalf("delete answered %v (%d left), Candidates %v", got.Tuples, named.Len(), want.Tuples)
	}
}

// A sessionless Evaluate may carry a batch: it answers each tuple's eq. 9
// factor, aligned and bit for bit what a one-tuple Evaluate answers, and
// prunes nothing. Inside a session, or with a bad query or tuple, it fails.
func TestBatchedEvaluate(t *testing.T) {
	r := rand.New(rand.NewSource(57))
	eng := New(0, randomPart(r, 200, 2), 2, 0)
	q := msg.Query{Threshold: 0.3, Dims: []int{1}}
	var batch []msg.Representative
	for k := 0; k < 5; k++ {
		tu := uncertain.Tuple{ID: uncertain.TupleID(5000 + k), Point: geom.Point{r.Float64(), r.Float64()}, Prob: 0.5}
		batch = append(batch, msg.Representative{Tuple: tu, LocalProb: 0.4})
	}
	resp, err := eng.Handle(context.Background(), &msg.Request{Kind: msg.KindEvaluate, Tuples: batch, Query: q})
	if err != nil || len(resp.CrossProbs) != len(batch) || resp.Pruned != 0 {
		t.Fatalf("batched evaluate: %+v, %v", resp, err)
	}
	for k, cand := range batch {
		one, err := eng.Handle(context.Background(), &msg.Request{Kind: msg.KindEvaluate, Query: q,
			Feed: msg.Feedback{Tuple: cand.Tuple, HomeLocalProb: cand.LocalProb}})
		if err != nil || math.Float64bits(one.CrossProb) != math.Float64bits(resp.CrossProbs[k]) {
			t.Fatalf("candidate %d: batch factor %v, alone %v (%v)", k, resp.CrossProbs[k], one.CrossProb, err)
		}
	}
	initSite(t, eng, 0.3, nil)
	for name, req := range map[string]msg.Request{
		"without a feedback tuple": {Kind: msg.KindEvaluate, Session: 7, Tuples: batch, Query: q},
		"outside (0,1]":            {Kind: msg.KindEvaluate, Tuples: batch},
		"bad candidate": {Kind: msg.KindEvaluate, Query: q,
			Tuples: []msg.Representative{{Tuple: uncertain.Tuple{ID: 1, Point: geom.Point{1}, Prob: 0.5}}}},
	} {
		_, err := eng.Handle(context.Background(), &req)
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: got %v", name, err)
		}
	}
}

func TestUnknownKind(t *testing.T) {
	eng := New(0, nil, 2, 0)
	if _, err := eng.Handle(context.Background(), &msg.Request{Kind: msg.Kind(77)}); err == nil {
		t.Fatal("unknown kind must fail")
	}
}

func TestHandleHonoursContext(t *testing.T) {
	eng := New(0, nil, 2, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Handle(ctx, &msg.Request{Kind: msg.KindShipAll}); err == nil {
		t.Fatal("cancelled context must fail")
	}
}

func TestSubspaceInit(t *testing.T) {
	r := rand.New(rand.NewSource(57))
	part := randomPart(r, 150, 3)
	eng := New(0, part, 3, 0)
	dims := []int{1, 2}
	resp := initSite(t, eng, 0.3, dims)
	want := part.Skyline(0.3, dims)
	var got []uncertain.SkylineMember
	for !resp.Exhausted {
		got = append(got, uncertain.SkylineMember{Tuple: resp.Rep.Tuple, Prob: resp.Rep.LocalProb})
		var err error
		resp, err = eng.Handle(context.Background(), &msg.Request{Kind: msg.KindNext})
		if err != nil {
			t.Fatal(err)
		}
	}
	if !uncertain.MembersEqual(got, want, 1e-9) {
		t.Fatalf("subspace stream mismatch: %d vs %d", len(got), len(want))
	}
}

func TestReInitResetsState(t *testing.T) {
	r := rand.New(rand.NewSource(58))
	part := randomPart(r, 80, 2)
	eng := New(0, part, 2, 0)
	initSite(t, eng, 0.3, nil)
	for i := 0; i < 3; i++ {
		if _, err := eng.Handle(context.Background(), &msg.Request{Kind: msg.KindNext}); err != nil {
			t.Fatal(err)
		}
	}
	// Re-Init with a different threshold must rebuild the full list.
	initSite(t, eng, 0.1, nil)
	want := len(part.Skyline(0.1, nil)) - 1 // Init pops the head
	if eng.LocalSkylineSize() != want {
		t.Fatalf("size after re-Init = %d, want %d", eng.LocalSkylineSize(), want)
	}
	if eng.PrunedTotal() != 0 {
		t.Fatal("re-Init must reset prune counter")
	}
}

func TestStatusEndpoint(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	eng := New(7, randomPart(r, 42, 2), 2, 0)
	initSite(t, eng, 0.3, nil)
	st := eng.Status()
	if st.ID != 7 || st.Tuples != 42 || st.Sessions != 1 || st.ReplicaSize != 0 {
		t.Fatalf("status = %+v", st)
	}
	if st.TreeHeight < 1 {
		t.Fatalf("tree height = %d, want >= 1", st.TreeHeight)
	}
	if st.StartUnixNano == 0 || st.UptimeSeconds < 0 {
		t.Fatalf("uptime fields = %d, %v", st.StartUnixNano, st.UptimeSeconds)
	}
	// The KindStatus reply a coordinator polls is the same snapshot.
	resp, err := eng.Handle(context.Background(), &msg.Request{Kind: msg.KindStatus})
	if err != nil {
		t.Fatal(err)
	}
	// Uptime advances between the two snapshots; compare stable fields.
	if got := resp.Status; got == nil || got.ID != st.ID || got.Tuples != st.Tuples || got.Sessions != st.Sessions ||
		got.TreeHeight != st.TreeHeight || got.StartUnixNano != st.StartUnixNano {
		t.Fatalf("KindStatus reply %+v, want %+v", got, st)
	}
}
