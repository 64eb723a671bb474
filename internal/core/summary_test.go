package core

import (
	"context"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/msg"
	"repro/internal/site"
	"repro/internal/transport"
	"repro/internal/uncertain"
)

// swapSite serves one site engine that a test may replace, as a daemon
// that restarts on the same address.
type swapSite struct {
	mu  sync.Mutex
	eng *site.Engine
}

func (s *swapSite) Handle(ctx context.Context, req *msg.Request) (*msg.Response, error) {
	s.mu.Lock()
	eng := s.eng
	s.mu.Unlock()
	return eng.Handle(ctx, req)
}

func (s *swapSite) restart(eng *site.Engine) {
	s.mu.Lock()
	s.eng = eng
	s.mu.Unlock()
}

// summaryCluster opens a coordinator over the given site handlers.
func summaryCluster(t *testing.T, sites []*swapSite) *Cluster {
	t.Helper()
	clients := make([]transport.Client, len(sites))
	for i, s := range sites {
		clients[i] = transport.Local(s)
	}
	c, err := NewClusterFromClients(clients, 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// summaryQuery runs the test's query on c and fails unless it matches the
// oracle over parts; it returns the tuples the query took up.
func summaryQuery(t *testing.T, what string, c *Cluster, parts []uncertain.DB) int64 {
	t.Helper()
	opts := Options{Threshold: 0.3, Algorithm: EDSUD, Dims: []int{2, 0}}
	rep, err := Run(context.Background(), c, opts)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if want := uncertain.Union(parts).Skyline(opts.Threshold, opts.Dims); !uncertain.MembersEqual(rep.Skyline, want, 1e-9) {
		t.Fatalf("%s: %d members, oracle %d", what, len(rep.Skyline), len(want))
	}
	return rep.Bandwidth.TuplesUp
}

// dominant is a tuple near the origin that dominates almost everything.
var dominant = uncertain.Tuple{ID: 90001, Point: geom.Point{0.002, 0.5, 0.001}, Prob: 0.9}

// A coordinator routes by the summaries it cached only while the site is
// at the version they describe. An insert through a second cluster lands
// a new dominator at site 0: the next query's Init names the old version,
// site 0 ships its new summary, and the answer is the oracle's. A site
// that restarts over a partition that changed, having seen no update
// since, names a version from a new random epoch and is refetched too.
// Inserts through the coordinator's own Server keep its cache current,
// so its reads ship no summary at all, unless another cluster's update
// came between.
func TestSummaryCacheFollowsTheSites(t *testing.T) {
	parts, _ := makeWorkload(t, 800, 3, 4, gen.Independent, 91)
	sites := make([]*swapSite, len(parts))
	for i, part := range parts {
		sites[i] = &swapSite{eng: site.New(i, part.Clone(), 3, 0)}
	}
	a, b := summaryCluster(t, sites), summaryCluster(t, sites)
	cold := summaryQuery(t, "cold", a, parts)
	warm := summaryQuery(t, "warm", a, parts)
	if warm >= cold {
		t.Fatalf("warm query took %d tuples up, the cold one %d: no summary was cached", warm, cold)
	}

	// Another coordinator's insert.
	other, err := b.Serve(context.Background(), ServeConfig{Floor: 0.3, Dims: []int{2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Insert(context.Background(), 0, dominant); err != nil {
		t.Fatal(err)
	}
	parts[0] = append(parts[0], dominant)
	// A query that fetched summaries took more up than the same query
	// repeated on the same state.
	refetched := func(what string) int64 {
		t.Helper()
		up := summaryQuery(t, what, a, parts)
		return up - summaryQuery(t, what+", repeated", a, parts)
	}
	if n := refetched("after another cluster's insert"); n <= 0 {
		t.Fatalf("after another cluster's insert the query fetched %d summary points: site 0 was not refetched", n)
	}

	// A restart over a changed partition: site 1 comes back holding a
	// dominator it never saw inserted.
	moved := dominant
	moved.ID = 90002
	parts[1] = append(parts[1].Clone(), moved)
	sites[1].restart(site.New(1, parts[1].Clone(), 3, 0))
	if n := refetched("after a restart"); n <= 0 {
		t.Fatalf("after a restart the query fetched %d summary points: site 1 was not refetched", n)
	}

	// The coordinator's own inserts: the cache follows, nothing ships.
	own, err := a.Serve(context.Background(), ServeConfig{Floor: 0.3, Dims: []int{2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	for k, p := range []geom.Point{{0.001, 0.9, 0.0005}, {0.6, 0.001, 0.0001}} {
		tu := uncertain.Tuple{ID: uncertain.TupleID(90010 + k), Point: p, Prob: 0.8}
		if err := own.Insert(context.Background(), 2, tu); err != nil {
			t.Fatal(err)
		}
		parts[2] = append(parts[2], tu)
	}
	if n := refetched("after own inserts"); n != 0 {
		t.Fatalf("after the coordinator's own inserts the query fetched %d summary points", n)
	}

	// An own insert that lands after another cluster's, at the same site:
	// its reply names a version two past the cached one, so the cached
	// summary, which lacks the other's dominator, is dropped and refetched.
	hidden := dominant
	hidden.ID = 90003
	if err := other.Insert(context.Background(), 3, hidden); err != nil {
		t.Fatal(err)
	}
	parts[3] = append(parts[3], hidden)
	tu := uncertain.Tuple{ID: 90020, Point: geom.Point{0.7, 0.2, 0.0002}, Prob: 0.8}
	if err := own.Insert(context.Background(), 3, tu); err != nil {
		t.Fatal(err)
	}
	parts[3] = append(parts[3], tu)
	if n := refetched("after an own insert behind another cluster's"); n <= 0 {
		t.Fatalf("after an own insert behind another cluster's the query fetched %d summary points: site 3 was not refetched", n)
	}
}

// Each cached summary is indexed once: a cold Init's view routes by the
// index the cache then keeps, a warm Init's by that same index, and an own
// insert keeps it when a cached point covers the insert and replaces it
// (with one holding the new point) when none does.
func TestSummaryIndexedOncePerEntry(t *testing.T) {
	parts, _ := makeWorkload(t, 800, 3, 4, gen.Independent, 92)
	sites := make([]*swapSite, len(parts))
	for i, part := range parts {
		sites[i] = &swapSite{eng: site.New(i, part, 3, 0)}
	}
	c := summaryCluster(t, sites)
	query := msg.Query{Threshold: 0.3, Dims: []int{2, 0}}
	dims := sortedDims(query.Dims)
	routes := func(what string) []*msg.Index {
		t.Helper()
		v := c.newView(nil, c.nextSession(), query)
		defer v.endSession()
		reqs := make([]msg.Request, len(sites))
		for i := range reqs {
			reqs[i].Kind = msg.KindInit
		}
		if _, err := v.Fanout(context.Background(), reqs); err != nil {
			t.Fatal(err)
		}
		out := make([]*msg.Index, len(sites))
		for i := range out {
			if out[i] = v.Summary(i); out[i] == nil || out[i] != c.summaries.indexed(i, dims, 0) {
				t.Fatalf("%s: site %d routed by %p, the cache keeps %p", what, i, out[i], c.summaries.indexed(i, dims, 0))
			}
		}
		return out
	}
	cold, warm := routes("cold"), routes("warm")
	for i := range cold {
		if warm[i] != cold[i] {
			t.Fatalf("site %d: the warm Init's index was built again", i)
		}
	}
	insert := func(p geom.Point) *msg.Index {
		req := &msg.Request{Kind: msg.KindInsert, Tuple: uncertain.Tuple{ID: 90100, Point: p, Prob: 0.5}}
		c.summaries.updated(0, req, c.summaries.get(0, dims).version+1)
		return c.summaries.indexed(0, dims, 0)
	}
	if insert(geom.Point{0.99, 0.99, 0.99}) != cold[0] {
		t.Fatal("an insert the summary covers rebuilt the index")
	}
	if x := insert(geom.Point{0.0001, 0.5, 0.0001}); x == cold[0] || !x.Dominates([]float64{0.0002, 0.0002}) {
		t.Fatal("an insert of a new dominator kept the old index")
	}
}
