package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/msg"
	"repro/internal/serve"
	"repro/internal/site"
	"repro/internal/transport"
	"repro/internal/uncertain"
)

// A small cluster whose deletes and inserts take every shape: deleting d
// promotes one candidate at each of the three sites (c at its own home,
// a and b elsewhere); e dominates nothing that qualifies; f is locally
// dominated where it lands and g is not.
var (
	waveD = uncertain.Tuple{ID: 1, Point: geom.Point{0.1, 0.1}, Prob: 0.95}
	waveA = uncertain.Tuple{ID: 2, Point: geom.Point{0.3, 0.2}, Prob: 0.8}
	waveB = uncertain.Tuple{ID: 3, Point: geom.Point{0.2, 0.35}, Prob: 0.7}
	waveC = uncertain.Tuple{ID: 4, Point: geom.Point{0.15, 0.5}, Prob: 0.6}
	waveE = uncertain.Tuple{ID: 5, Point: geom.Point{0.9, 0.9}, Prob: 0.5}
	waveF = uncertain.Tuple{ID: 6, Point: geom.Point{0.95, 0.95}, Prob: 0.5}
	waveG = uncertain.Tuple{ID: 7, Point: geom.Point{0.05, 0.9}, Prob: 0.9}
)

func waveParts() []uncertain.DB {
	return []uncertain.DB{{waveD, waveC}, {waveA, waveE}, {waveB}}
}

// gate holds every call its clients answer until the test opens it, so all
// the calls of one fan-out are held at once and the next fan-out cannot
// begin before the gate opens: what arrives between two openings is one
// fan-out. Unarmed (open nil), calls pass straight through.
type gate struct {
	arrived chan string // "site kind [batched tuple ids]"
	mu      sync.Mutex
	open    chan struct{}
}

type gatedClient struct {
	site int
	eng  *site.Engine
	g    *gate
	// failEvaluate makes this site's Evaluate calls fail with errBoom.
	failEvaluate bool
	// bare passes on no summary, so every evaluate reaches every site.
	bare bool
}

func (c *gatedClient) Call(ctx context.Context, req *msg.Request) (*msg.Response, error) {
	c.g.mu.Lock()
	open, fail := c.g.open, c.failEvaluate && req.Kind == msg.KindEvaluate
	c.g.mu.Unlock()
	if fail {
		return nil, errBoom
	}
	resp, err := c.eng.Handle(ctx, req)
	if err == nil && c.bare {
		resp.Summary = msg.Summary{}
	}
	if open != nil {
		desc := fmt.Sprintf("%d %v", c.site, req.Kind)
		for _, rep := range req.Tuples {
			desc += fmt.Sprintf(" %d", rep.Tuple.ID)
		}
		c.g.arrived <- desc
		<-open
	}
	return resp, err
}

func (c *gatedClient) Close() error { return nil }

func gatedCluster(t *testing.T, parts []uncertain.DB, d int) (*Cluster, *gate, []*gatedClient) {
	t.Helper()
	g := &gate{arrived: make(chan string, 64)}
	clients := make([]transport.Client, len(parts))
	gated := make([]*gatedClient, len(parts))
	for i, part := range parts {
		gated[i] = &gatedClient{site: i, eng: site.New(i, part, d, 0), g: g}
		clients[i] = gated[i]
	}
	cluster, err := NewClusterFromClients(clients, d)
	if err != nil {
		t.Fatal(err)
	}
	return cluster, g, gated
}

// waves runs op with the gate armed, holding each fan-out until as many
// calls as want names for it have arrived, and returns what arrived, one
// sorted line per call, fan-out by fan-out. Calls beyond the expected
// fan-outs pass the (then permanently open) gate and are returned as one
// more fan-out.
func (g *gate) waves(t *testing.T, want [][]string, op func() error) [][]string {
	t.Helper()
	g.mu.Lock()
	g.open = make(chan struct{})
	g.mu.Unlock()
	done := make(chan error, 1)
	go func() { done <- op() }()
	var got [][]string
	for _, wave := range want {
		var held []string
		for len(held) < len(wave) {
			select {
			case a := <-g.arrived:
				held = append(held, a)
			case err := <-done:
				t.Fatalf("update returned (%v) with %d of the %d calls of fan-out %d held: %v", err, len(held), len(wave), len(got)+1, held)
			case <-time.After(10 * time.Second):
				t.Fatalf("fan-out %d: %d calls in flight, want %d: %v", len(got)+1, len(held), len(wave), held)
			}
		}
		slices.Sort(held)
		got = append(got, held)
		g.mu.Lock()
		close(g.open)
		g.open = make(chan struct{})
		g.mu.Unlock()
	}
	g.mu.Lock()
	close(g.open) // from here on calls pass, and anything arriving is a stray fan-out
	g.mu.Unlock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	g.mu.Lock()
	g.open = nil
	g.mu.Unlock()
	var stray []string
	for len(g.arrived) > 0 {
		stray = append(stray, <-g.arrived)
	}
	if stray != nil {
		got = append(got, stray)
	}
	return got
}

// TestUpdateWavesPerOperation pins what each kind of update costs: a
// delete is one fan-out that applies it and gathers every site's
// candidates, then one batched Evaluate per site that may hold a dominator
// of something to evaluate; with no candidates it is the first fan-out
// alone; an insert is one call, plus one Evaluate fan-out to those sites
// when its local probability reaches q. The sites' summaries come from
// the Server's first query: {d} at site 0, {a} at site 1, {b} at
// site 2.
func TestUpdateWavesPerOperation(t *testing.T) {
	ctx := context.Background()
	cluster, g, _ := gatedCluster(t, waveParts(), 2)
	maint, err := cluster.Serve(ctx, ServeConfig{Floor: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		op    func() error
		waves [][]string
	}{
		{"delete, no candidates", func() error { return maint.Delete(ctx, 1, waveE) },
			[][]string{{"0 candidates", "1 delete", "2 candidates"}}},
		{"insert, locally dominated", func() error { return maint.Insert(ctx, 2, waveF) },
			[][]string{{"2 insert"}}},
		// g reaches q at home, and neither d nor b dominates it: its
		// factors at sites 0 and 2 are exactly 1, so it is sent nowhere
		// (was {"0 evaluate 7", "2 evaluate 7"}). Site 1's summary gains g.
		{"insert, qualifies, no dominator elsewhere", func() error { return maint.Insert(ctx, 1, waveG) },
			[][]string{{"1 insert"}}},
		{"delete, candidates at every site", func() error { return maint.Delete(ctx, 0, waveD) },
			[][]string{
				{"0 delete", "1 candidates", "2 candidates"},
				// The candidates are c (4) from site 0, a (2) from site 1
				// and b (3) from site 2. Site 0's summary keeps d after the
				// delete, a stale point that dominates a and b, so site 0
				// still evaluates them; no point of site 1's {a, g} or of
				// site 2's {b} dominates a candidate homed elsewhere, so
				// they are sent nothing (was "1 evaluate 4 3", "2 evaluate
				// 4 2").
				{"0 evaluate 2 3"},
			}},
	} {
		before := cluster.Meter().Snapshot()
		got := g.waves(t, tc.waves, tc.op)
		msgs := cluster.Meter().Snapshot().Sub(before).Messages
		want := int64(0)
		for _, w := range tc.waves {
			want += int64(len(w))
		}
		if !slices.EqualFunc(got, tc.waves, slices.Equal) || msgs != want {
			t.Errorf("%s: fan-outs %q (%d messages), want %q (%d)", tc.name, got, msgs, tc.waves, want)
		}
	}
	live := uncertain.DB{waveA, waveB, waveC, waveF, waveG}
	if want := live.Skyline(0.3, nil); !uncertain.MembersEqual(maint.Skyline(), want, 1e-12) {
		t.Fatalf("answer %v, want %v", maint.Skyline(), want)
	}
}

// serialRef is the update path this package had before deletes took two
// fan-outs, kept here as the reference: a delete is the home site's Delete,
// then a Candidates broadcast, then one Evaluate broadcast per candidate,
// serially, each folded local × Π_{j≠home} in ascending site order.
type serialRef struct {
	t       *testing.T
	clients []transport.Client
	q       msg.Query
	sky     map[uncertain.TupleID]uncertain.SkylineMember
	sites   map[uncertain.TupleID]int
}

func (r *serialRef) call(site int, req msg.Request) *msg.Response {
	r.t.Helper()
	resp, err := r.clients[site].Call(context.Background(), &req)
	if err != nil {
		r.t.Fatalf("reference: site %d %v: %v", site, req.Kind, err)
	}
	return resp
}

func (r *serialRef) global(home int, tu uncertain.Tuple, local float64) float64 {
	global := local
	for j := range r.clients {
		if j != home {
			global *= r.call(j, msg.Request{Kind: msg.KindEvaluate, Query: r.q,
				Feed: msg.Feedback{Tuple: tu, HomeLocalProb: local}}).CrossProb
		}
	}
	return global
}

func (r *serialRef) admit(m uncertain.SkylineMember, home int) {
	r.sky[m.Tuple.ID], r.sites[m.Tuple.ID] = m, home
}

func (r *serialRef) insert(home int, tu uncertain.Tuple) {
	resp := r.call(home, msg.Request{Kind: msg.KindInsert, Tuple: tu, Query: r.q})
	if local := resp.Rep.LocalProb; local >= r.q.Threshold && !resp.Hopeless {
		if g := r.global(home, tu, local); g >= r.q.Threshold {
			r.admit(uncertain.SkylineMember{Tuple: tu, Prob: g}, home)
		}
	}
	for id, member := range r.sky {
		if id != tu.ID && tu.Dominates(member.Tuple, r.q.Dims) {
			if member.Prob *= 1 - tu.Prob; member.Prob < r.q.Threshold {
				delete(r.sky, id)
				delete(r.sites, id)
			} else {
				r.admit(member, r.sites[id])
			}
		}
	}
}

func (r *serialRef) delete(home int, tu uncertain.Tuple) (homes map[int]bool) {
	r.call(home, msg.Request{Kind: msg.KindDelete, ID: tu.ID, Point: tu.Point})
	delete(r.sky, tu.ID)
	delete(r.sites, tu.ID)
	for id, member := range r.sky {
		if tu.Prob < 1 && tu.Dominates(member.Tuple, r.q.Dims) {
			if member.Prob /= 1 - tu.Prob; member.Prob > member.Tuple.Prob {
				member.Prob = member.Tuple.Prob
			}
			r.admit(member, r.sites[id])
		}
	}
	resps := make([]*msg.Response, len(r.clients))
	for j := range r.clients {
		resps[j] = r.call(j, msg.Request{Kind: msg.KindCandidates, Feed: msg.Feedback{Tuple: tu}, Query: r.q})
	}
	homes = make(map[int]bool)
	for j, resp := range resps {
		for _, c := range resp.Tuples {
			if _, ok := r.sky[c.Tuple.ID]; !ok {
				homes[j] = true
				if g := r.global(j, c.Tuple, c.LocalProb); g >= r.q.Threshold {
					r.admit(uncertain.SkylineMember{Tuple: c.Tuple, Prob: g}, j)
				}
			}
		}
	}
	return homes
}

// render lists an answer one line per entry, in order: tuple id,
// probability bits, home site.
func render(entries []serve.Entry) string {
	lines := make([]string, len(entries))
	for i, e := range entries {
		lines[i] = fmt.Sprintf("%d %x @%d", e.Member.Tuple.ID, math.Float64bits(e.Member.Prob), e.Site)
	}
	return strings.Join(lines, "\n")
}

// entries is the reference answer in report order.
func (r *serialRef) entries() []serve.Entry {
	var out []serve.Entry
	for id, member := range r.sky {
		out = append(out, serve.Entry{Member: member, Site: r.sites[id]})
	}
	slices.SortFunc(out, func(a, b serve.Entry) int { return uncertain.CompareMembers(a.Member, b.Member) })
	return out
}

// TestUpdateWavesMatchSerialReference drives a seeded 300-op churn through
// the Server's two-wave updates and, over an identical second cluster, through
// the serial reference: after every op the Server's store must hold
// the reference's answer in the same order, with the same probabilities
// bit for bit and the same home sites.
func TestUpdateWavesMatchSerialReference(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(61))
	const m, d, q = 4, 2, 0.3
	parts, union := makeWorkload(t, 300, d, m, gen.Independent, 61)
	cluster, err := Open(ClusterConfig{Partitions: parts, Dims: d})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	maint, err := cluster.Serve(ctx, ServeConfig{Floor: q})
	if err != nil {
		t.Fatal(err)
	}

	ref := &serialRef{t: t, q: msg.Query{Threshold: q},
		sky: map[uncertain.TupleID]uncertain.SkylineMember{}, sites: map[uncertain.TupleID]int{}}
	for _, e := range maint.store.Entries() {
		ref.admit(e.Member, e.Site)
	}
	for i, part := range parts {
		ref.clients = append(ref.clients, transport.Local(site.New(i, part, d, 0)))
	}
	mirror := make([]uncertain.DB, m)
	for i := range parts {
		mirror[i] = parts[i].Clone()
	}
	nextID := uncertain.TupleID(len(union) + 1)
	multiSite := 0
	for op := 0; op < 300; op++ {
		home := r.Intn(m)
		if len(mirror[home]) == 0 || r.Intn(2) == 0 {
			scale, prob := 1.0, 0.05+0.95*r.Float64()
			if r.Intn(4) == 0 {
				scale = 0.1 // near the origin: rescales and evicts members
			}
			if r.Intn(10) == 0 {
				prob = 1
			}
			tu := uncertain.Tuple{ID: nextID, Point: geom.Point{scale * r.Float64(), scale * r.Float64()}, Prob: prob}
			nextID++
			mirror[home] = append(mirror[home], tu)
			if err := maint.Insert(ctx, home, tu); err != nil {
				t.Fatalf("op %d insert: %v", op, err)
			}
			ref.insert(home, tu)
		} else {
			// Delete a member half the time: that is what promotes.
			idx := r.Intn(len(mirror[home]))
			if entries := maint.store.Entries(); r.Intn(2) == 0 && len(entries) > 0 {
				if k := r.Intn(len(entries)); entries[k].Site == home {
					idx = slices.IndexFunc(mirror[home], func(tu uncertain.Tuple) bool { return tu.ID == entries[k].Member.Tuple.ID })
				}
			}
			victim := mirror[home][idx]
			mirror[home] = slices.Delete(mirror[home], idx, idx+1)
			if err := maint.Delete(ctx, home, victim); err != nil {
				t.Fatalf("op %d delete: %v", op, err)
			}
			if homes := ref.delete(home, victim); len(homes) > 1 {
				multiSite++
			}
		}
		if g, w := render(maint.store.Entries()), render(ref.entries()); g != w {
			t.Fatalf("op %d: store\n%s\nreference\n%s", op, g, w)
		}
		if !maint.store.Valid() {
			t.Fatalf("op %d: a successful update left the store invalid", op)
		}
	}
	if multiSite == 0 {
		t.Fatal("no delete had candidates at more than one site; the churn does not exercise the batch")
	}
	if want := uncertain.Union(mirror).Skyline(q, nil); !uncertain.MembersEqual(maint.Skyline(), want, 1e-9) {
		t.Fatal("churned answer diverged from the oracle")
	}
}

// TestFailedUpdateRefreshesServedReads: an update whose evaluation wave
// fails at one site, after the home site applied it, reports that site's
// error, leaves the store's members as they were and marks the store
// invalid — one version bump, the invalidation — so the next covered read
// refreshes and is exact. A failed update followed straight by another
// update refreshes inside that update instead.
func TestFailedUpdateRefreshesServedReads(t *testing.T) {
	ctx := context.Background()
	cluster, _, gated := gatedCluster(t, waveParts(), 2)
	for _, c := range gated {
		c.bare = true // no site 2 holds a dominator of would be sent an evaluate
	}
	server, err := cluster.Serve(ctx, ServeConfig{Floor: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	store := server.store
	fail := func(on bool) {
		gated[0].g.mu.Lock()
		gated[2].failEvaluate = on
		gated[0].g.mu.Unlock()
	}
	live := uncertain.DB{waveA, waveB, waveC, waveE}
	covered := func(want Source) {
		t.Helper()
		rep, err := server.Query(ctx, Options{Threshold: 0.3, Mode: ModeMaterialized})
		if err != nil || rep.Source != want {
			t.Fatalf("covered read: source %v, %v; want %v", rep.Source, err, want)
		}
		if oracle := live.Skyline(0.3, nil); !uncertain.MembersEqual(rep.Skyline, oracle, 1e-12) {
			t.Fatalf("covered read %v, oracle %v", rep.Skyline, oracle)
		}
	}
	// failed runs one update that must fail at site 2's evaluate and
	// leave the members untouched, the store invalid and the version one
	// bump (the invalidation) ahead.
	failed := func(update func() error) {
		t.Helper()
		members, version := render(store.Entries()), store.Version()
		fail(true)
		err := update()
		fail(false)
		if !strings.HasPrefix(fmt.Sprint(err), "core: site 2 evaluate: ") || !errors.Is(err, errBoom) {
			t.Fatalf("failed update: %v; want site 2's evaluate error", err)
		}
		if got := render(store.Entries()); got != members {
			t.Fatalf("failed update changed the members:\n%s\nwant\n%s", got, members)
		}
		if store.Valid() || store.Version() != version+1 {
			t.Fatalf("after a failed update: valid %v, version %d; want invalid at %d", store.Valid(), store.Version(), version+1)
		}
	}

	failed(func() error { return server.Delete(ctx, 0, waveD) }) // promotes a, b, c: site 2 evaluates two of them
	covered(SourceRefreshed)
	covered(SourceMaterialized)

	failed(func() error { return server.Insert(ctx, 1, waveG) }) // qualifies locally: evaluated at sites 0 and 2
	live = append(live, waveG)
	version := store.Version()
	if err := server.Delete(ctx, 1, waveE); err != nil { // refreshes first, then applies
		t.Fatal(err)
	}
	live = slices.DeleteFunc(live, func(tu uncertain.Tuple) bool { return tu.ID == waveE.ID })
	// e is in no answer, so the delete itself changes nothing: the one
	// bump is the refresh's Replace.
	if refreshes := server.Stats().Refreshes; refreshes != 1 || !store.Valid() || store.Version() != version+1 {
		t.Fatalf("%d refresh rounds through the server, valid %v, version %d; want the covered read's one, valid, %d",
			refreshes, store.Valid(), store.Version(), version+1)
	}
	covered(SourceMaterialized) // the delete's own refresh replaced the invalidated store
}

// TestInvalidatedServerRefreshesOnUpdate: after Server.Invalidate (a site
// changed out of band), the next update refreshes the store before it
// applies — one Replace, then one Apply — so the store is valid and exact
// afterwards and the next covered read needs no refresh round.
func TestInvalidatedServerRefreshesOnUpdate(t *testing.T) {
	ctx := context.Background()
	cluster, _, gated := gatedCluster(t, waveParts(), 2)
	server, err := cluster.Serve(ctx, ServeConfig{Floor: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	store := server.store
	// g lands at site 1 behind the server's back; h, inserted through it,
	// dominates g, so the insert rescales a member only a refresh knows.
	if _, err := gated[1].eng.Handle(ctx, &msg.Request{Kind: msg.KindInsert, Tuple: waveG, Query: msg.Query{Threshold: 0.3}}); err != nil {
		t.Fatal(err)
	}
	server.Invalidate()
	version := store.Version()
	waveH := uncertain.Tuple{ID: 8, Point: geom.Point{0.04, 0.85}, Prob: 0.5}
	if err := server.Insert(ctx, 2, waveH); err != nil {
		t.Fatal(err)
	}
	if !store.Valid() || store.Version() != version+2 {
		t.Fatalf("after the insert: valid %v, version %d; want valid at %d (a Replace, then an Apply)", store.Valid(), store.Version(), version+2)
	}
	live := uncertain.DB{waveD, waveC, waveA, waveE, waveB, waveG, waveH}
	if oracle := live.Skyline(0.3, nil); !uncertain.MembersEqual(server.Skyline(), oracle, 1e-12) {
		t.Fatalf("store %v, oracle %v", server.Skyline(), oracle)
	}
	rep, err := server.Query(ctx, Options{Threshold: 0.3, Mode: ModeMaterialized})
	if err != nil || rep.Source != SourceMaterialized || server.Stats().Refreshes != 0 {
		t.Fatalf("covered read: source %v, %v, %d refresh rounds; want materialized with none", rep.Source, err, server.Stats().Refreshes)
	}
}
