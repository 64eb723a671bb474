package site

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/transport"
	"repro/internal/uncertain"
)

// churn drives one engine through its public Handle path and checks,
// after every step, that each maintained index is what a fresh search of
// the tree would return. The randomized stream test and the fuzz target
// share it.
type churn struct {
	t      *testing.T
	eng    *Engine
	live   uncertain.DB // mirror of the partition, for picking victims
	nextID uncertain.TupleID
	sess   uint64
}

func newChurn(t *testing.T, part uncertain.DB, d int) *churn {
	return &churn{t: t, eng: New(0, part, d, 0), live: part.Clone(), nextID: 1 << 20}
}

func (c *churn) handle(req *transport.Request) *transport.Response {
	c.t.Helper()
	resp, err := c.eng.Handle(context.Background(), req)
	if err != nil {
		c.t.Fatalf("%v: %v", req.Kind, err)
	}
	return resp
}

// init opens (and closes) a session and checks what it snapshotted.
func (c *churn) init(q float64, dims []int) {
	c.t.Helper()
	c.sess++
	c.handle(&transport.Request{Kind: transport.KindInit, Session: c.sess, Query: transport.Query{Threshold: q, Dims: dims}})
	want := c.eng.index.LocalSkyline(q, dims)
	if len(want) > 0 {
		want = want[1:] // Init shipped the head
	}
	if got := c.eng.sessions[c.sess].sky; !sameMembers(got, want) {
		c.t.Fatalf("Init(q=%v, dims=%v) snapshot differs from a fresh search: %d vs %d members", q, dims, len(got), len(want))
	}
	c.handle(&transport.Request{Kind: transport.KindEndQuery, Session: c.sess})
	c.check()
}

func (c *churn) insert(point geom.Point, prob float64, dims []int) {
	c.t.Helper()
	tu := uncertain.Tuple{ID: c.nextID, Point: point, Prob: prob}
	c.nextID++
	c.handle(&transport.Request{Kind: transport.KindInsert, Tuple: tu, Query: transport.Query{Threshold: 0.3, Dims: dims}})
	c.live = append(c.live, tu)
	c.check()
}

// delete removes live[i] and checks invariant (b): the Candidates answer
// for it at threshold q is DominatedCandidates on the post-delete tree.
func (c *churn) delete(i int, q float64, dims []int) {
	c.t.Helper()
	gone := c.live[i]
	c.live = slices.Delete(c.live, i, i+1)
	c.handle(&transport.Request{Kind: transport.KindDelete, ID: gone.ID, Point: gone.Point})
	c.check()

	resp := c.handle(&transport.Request{
		Kind: transport.KindCandidates, Feed: transport.Feedback{Tuple: gone},
		Query: transport.Query{Threshold: q, Dims: dims},
	})
	var got, want []uncertain.SkylineMember
	for _, rep := range resp.Tuples {
		got = append(got, uncertain.SkylineMember{Tuple: rep.Tuple, Prob: rep.LocalProb})
	}
	c.eng.index.DominatedCandidates(gone.Point, dims, gone.ID, q, func(m uncertain.SkylineMember) bool {
		want = append(want, m)
		return true
	})
	uncertain.SortMembers(want)
	if !sameMembers(got, want) {
		c.t.Fatalf("Candidates(%v, q=%v, dims=%v): %d members, DominatedCandidates finds %d", gone, q, dims, len(got), len(want))
	}
	c.check()
}

// check is invariant (a) for every index the engine holds.
func (c *churn) check() {
	c.t.Helper()
	for _, ix := range c.eng.sky {
		if !slices.IsSortedFunc(ix.members, uncertain.CompareMembers) {
			c.t.Fatalf("index %v is out of report order", ix.dims)
		}
		want := c.eng.index.LocalSkyline(ix.floor, ix.dims)
		if !sameMembers(ix.members, want) {
			c.t.Fatalf("index %v at floor %v: %d members, fresh search %d", ix.dims, ix.floor, len(ix.members), len(want))
		}
	}
}

// sameMembers: the same tuples, position by position up to ties in
// probability, with probabilities within 1e-12.
func sameMembers(got, want []uncertain.SkylineMember) bool {
	if len(got) != len(want) || !uncertain.MembersEqual(got, want, 1e-12) {
		return false
	}
	for i := range got {
		if math.Abs(got[i].Prob-want[i].Prob) > 1e-12 {
			return false
		}
	}
	return true
}

func TestSkyIndexEqualsFreshSearchUnderChurn(t *testing.T) {
	for _, dims := range [][]int{nil, {0, 2}} {
		r := rand.New(rand.NewSource(20))
		c := newChurn(t, randomPart(r, 400, 3), 3)
		c.init(0.6, dims)
		floor := 0.6
		for op := 0; op < 2000; op++ {
			switch k := r.Intn(20); {
			case k < 6: // an ordinary insert, now and then certain to exist
				prob := 0.05 + 0.95*r.Float64()
				if k == 0 {
					prob = 1
				}
				c.insert(geom.Point{r.Float64(), r.Float64(), r.Float64()}, prob, dims)
			case k < 8: // near the origin: evicts most members
				c.insert(geom.Point{0.05 * r.Float64(), 0.05 * r.Float64(), 0.05 * r.Float64()}, 0.5+0.5*r.Float64(), dims)
			case k == 8: // an insert that names another subspace than the hot index's
				c.insert(geom.Point{r.Float64(), r.Float64(), r.Float64()}, r.Float64()*0.9+0.1, []int{1})
			case k < 13: // delete any tuple
				c.delete(r.Intn(len(c.live)), 0.2+0.6*r.Float64(), dims)
			case k < 16 && len(c.eng.sky[0].members) > 0: // delete a member
				id := c.eng.sky[0].members[r.Intn(len(c.eng.sky[0].members))].Tuple.ID
				c.delete(slices.IndexFunc(c.live, func(tu uncertain.Tuple) bool { return tu.ID == id }), floor, dims)
			case k < 17: // delete a tuple that certainly exists, when there is one
				if i := slices.IndexFunc(c.live, func(tu uncertain.Tuple) bool { return tu.Prob == 1 }); i >= 0 {
					c.delete(i, 0.3, dims)
				}
			case k < 18 && floor > 0.05: // a lower threshold than ever: the floor descends
				floor *= 0.93
				c.init(floor, dims)
			default: // a covered threshold: a prefix, no rebuild
				c.init(floor+(1-floor)*r.Float64(), dims)
			}
		}
		if got := c.eng.sky[0].floor; got > floor {
			t.Fatalf("dims %v: floor %v never descended to %v", dims, got, floor)
		}
	}
}

// Sessions snapshot SKY(D_i) at Init: updates and other sessions' pruning
// never reach a session's remaining list or its Pruned count, and no
// session's pruning reaches the index.
func TestSessionsSnapshotTheIndex(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	c := newChurn(t, randomPart(r, 1500, 3), 3)
	const older, newer = 1, 2
	query := transport.Query{Threshold: 0.3}
	feedbacks := uncertain.TupleID(1 << 30)
	prune := func(session uint64, corner float64) {
		t.Helper()
		feedbacks++
		if c.handle(&transport.Request{Kind: transport.KindEvaluate, Session: session, Feed: transport.Feedback{
			Tuple: uncertain.Tuple{ID: feedbacks, Point: geom.Point{corner, corner, corner}, Prob: 0.99}, HomeLocalProb: 0.99,
		}}).Pruned == 0 {
			t.Fatalf("feedback at %v pruned nothing in session %d; the test needs pruning sessions", corner, session)
		}
	}
	type state struct {
		sky    []uncertain.SkylineMember
		pruned int
	}
	snapshot := func(session uint64) state {
		s := c.eng.sessions[session]
		return state{slices.Clone(s.sky), s.pruned}
	}
	unchanged := func(session uint64, was state, after string) {
		t.Helper()
		now := snapshot(session)
		if now.pruned != was.pruned || !slices.EqualFunc(now.sky, was.sky, func(a, b uncertain.SkylineMember) bool {
			return a.Tuple.ID == b.Tuple.ID && a.Prob == b.Prob
		}) {
			t.Fatalf("session %d changed after %s: %d remaining / %d pruned, had %d / %d",
				session, after, len(now.sky), now.pruned, len(was.sky), was.pruned)
		}
	}

	c.handle(&transport.Request{Kind: transport.KindInit, Session: older, Query: query})
	prune(older, 0.06)
	c.check() // pruning a session left the index whole
	was := snapshot(older)

	c.insert(geom.Point{0.03, 0.03, 0.03}, 0.9, nil) // evicts members the older session still holds
	member := c.eng.sky[0].members[0].Tuple.ID
	c.delete(slices.IndexFunc(c.live, func(tu uncertain.Tuple) bool { return tu.ID == member }), 0.3, nil)
	unchanged(older, was, "an insert and a delete")

	c.handle(&transport.Request{Kind: transport.KindInit, Session: newer, Query: query})
	fresh := snapshot(newer)
	prune(older, 0.04)
	unchanged(newer, fresh, "pruning the older session")
	was = snapshot(older)
	prune(newer, 0.02)
	unchanged(older, was, "pruning the newer session")
	c.check()
}

// Candidates, Insert and a Delete that names a query must reject a
// malformed query before it can key an index or reach the tree, with the
// errors Init gives.
func TestUpdateHandlersValidateTheQuery(t *testing.T) {
	tu := uncertain.Tuple{ID: 9000, Point: geom.Point{0.5, 0.5}, Prob: 0.5}
	cases := []struct {
		name     string
		query    transport.Query
		feed     uncertain.Tuple
		want     string // in the Candidates error
		insertOK bool   // Insert takes no feedback and may omit the threshold
	}{
		{name: "threshold above one", query: transport.Query{Threshold: 2}, feed: tu, want: "outside (0,1]"},
		{name: "negative threshold", query: transport.Query{Threshold: -0.1}, feed: tu, want: "outside (0,1]"},
		{name: "NaN threshold", query: transport.Query{Threshold: math.NaN()}, feed: tu, want: "outside (0,1]"},
		{name: "dimension out of range", query: transport.Query{Threshold: 0.3, Dims: []int{9}}, feed: tu, want: "invalid subspace"},
		{name: "duplicate dimension", query: transport.Query{Threshold: 0.3, Dims: []int{0, 0}}, feed: tu, want: "invalid subspace"},
		{name: "empty mask", query: transport.Query{Threshold: 0.3, Dims: []int{}}, feed: tu, want: "invalid subspace"},
		{name: "no threshold", query: transport.Query{}, feed: tu, want: "outside (0,1]", insertOK: true},
		{name: "feedback of another dimensionality", query: transport.Query{Threshold: 0.3},
			feed: uncertain.Tuple{ID: 1, Point: geom.Point{1}, Prob: 0.5}, want: "bad feedback", insertOK: true},
		{name: "feedback without probability", query: transport.Query{Threshold: 0.3},
			feed: uncertain.Tuple{ID: 1, Point: geom.Point{0.5, 0.5}}, want: "bad feedback", insertOK: true},
	}
	r := rand.New(rand.NewSource(22))
	part := randomPart(r, 50, 2)
	eng := New(0, part, 2, 0)
	handle := func(req *transport.Request) string {
		if _, err := eng.Handle(context.Background(), req); err != nil {
			return err.Error()
		}
		return ""
	}
	for _, tc := range cases {
		got := handle(&transport.Request{Kind: transport.KindCandidates, Feed: transport.Feedback{Tuple: tc.feed}, Query: tc.query})
		if !strings.Contains(got, tc.want) {
			t.Errorf("Candidates, %s: error %q, want %q", tc.name, got, tc.want)
		}
		invalid := tc.query.Validate(2) != nil
		if invalid {
			says := handle(&transport.Request{Kind: transport.KindInit, Query: tc.query})
			if got != says {
				t.Errorf("Candidates, %s: error %q, Init says %q", tc.name, got, says)
			}
			// A query-less delete is ApplyNaive's and applies.
			if tc.query.Threshold != 0 {
				del := &transport.Request{Kind: transport.KindDelete, ID: part[0].ID, Point: part[0].Point, Query: tc.query}
				if got := handle(del); got != says {
					t.Errorf("Delete, %s: error %q, Init says %q", tc.name, got, says)
				}
			}
		}
		got = handle(&transport.Request{Kind: transport.KindInsert, Tuple: tu, Query: tc.query})
		switch {
		case tc.insertOK && got != "":
			t.Errorf("Insert, %s: %s, want it applied", tc.name, got)
		case tc.insertOK:
			if undo := handle(&transport.Request{Kind: transport.KindDelete, ID: tu.ID, Point: tu.Point}); undo != "" {
				t.Fatal(undo)
			}
		case got == "" || got != handle(&transport.Request{Kind: transport.KindInit, Query: tc.query}):
			t.Errorf("Insert, %s: error %q, want Init's", tc.name, got)
		}
	}
	if eng.Len() != 50 || len(eng.sky) != 0 {
		t.Fatalf("rejected requests left %d tuples (want 50) and %d indexes (want 0)", eng.Len(), len(eng.sky))
	}
}

// An engine holds a bounded number of indexes and an update keeps one.
func TestSkyIndexesAreBoundedAndDroppedByUpdates(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	c := newChurn(t, randomPart(r, 100, 4), 4)
	var masks [][]int
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			if a != b {
				masks = append(masks, []int{a, b})
			}
		}
	}
	for _, dims := range masks {
		c.init(0.3, dims)
	}
	if len(c.eng.sky) != maxSkyIndexes || !slices.Equal(c.eng.sky[0].dims, masks[len(masks)-1]) {
		t.Fatalf("%d indexes with %v first, want %d with %v first", len(c.eng.sky), c.eng.sky[0].dims, maxSkyIndexes, masks[len(masks)-1])
	}
	c.insert(geom.Point{0.1, 0.1, 0.1, 0.1}, 0.5, nil)
	if len(c.eng.sky) != 1 || !slices.Equal(c.eng.sky[0].dims, masks[len(masks)-1]) {
		t.Fatalf("after an update: %d indexes, want the most recently read alone", len(c.eng.sky))
	}
}

// FuzzSkyIndexChurn decodes bytes into Init / Insert / Delete (with its
// Candidates) steps — three bytes each: opcode, then two operands — and
// holds invariants (a) and (b) after every one.
func FuzzSkyIndexChurn(f *testing.F) {
	f.Add([]byte{0, 200, 0, 1, 3, 3, 2, 0, 90, 1, 200, 200, 2, 1, 40, 0, 20, 1})
	f.Add([]byte{1, 0, 0, 1, 1, 1, 2, 5, 255, 0, 255, 0, 2, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 600 {
			script = script[:600]
		}
		r := rand.New(rand.NewSource(24))
		c := newChurn(t, randomPart(r, 64, 2), 2)
		subspaces := [][]int{nil, {1}, {1, 0}}
		for ; len(script) >= 3; script = script[3:] {
			op, a, b := script[0], script[1], script[2]
			dims := subspaces[int(op>>2)%len(subspaces)]
			q := (float64(a) + 1) / 256 // (0, 1]
			switch op & 3 {
			case 0:
				c.init(q, dims)
			case 1: // bytes near zero land near the origin; b's low bits pick the probability
				c.insert(geom.Point{float64(a) / 255, float64(b) / 255}, (float64(b&15)+1)/16, dims)
			default:
				if len(c.live) > 0 {
					c.delete(int(b)%len(c.live), q, dims)
				}
			}
		}
	})
}
