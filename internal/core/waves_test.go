package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/geom"
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
}

func (c *gatedClient) Call(ctx context.Context, req *transport.Request) (*transport.Response, error) {
	c.g.mu.Lock()
	open, fail := c.g.open, c.failEvaluate && req.Kind == transport.KindEvaluate
	c.g.mu.Unlock()
	if fail {
		return nil, errBoom
	}
	resp, err := c.eng.Handle(ctx, req)
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
// candidates, then one batched Evaluate per site that has something to
// evaluate; with no candidates it is the first fan-out alone; an insert is
// one call, plus one Evaluate fan-out when its local probability reaches q.
func TestUpdateWavesPerOperation(t *testing.T) {
	ctx := context.Background()
	cluster, g, _ := gatedCluster(t, waveParts(), 2)
	maint, err := NewMaintainer(ctx, cluster, Options{Threshold: 0.3})
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
		{"insert, evaluated", func() error { return maint.Insert(ctx, 1, waveG) },
			[][]string{{"1 insert"}, {"0 evaluate 7", "2 evaluate 7"}}},
		{"delete, candidates at every site", func() error { return maint.Delete(ctx, 0, waveD) },
			[][]string{
				{"0 delete", "1 candidates", "2 candidates"},
				// Site j evaluates the candidates homed elsewhere: c (4) from
				// site 0, a (2) from site 1, b (3) from site 2.
				{"0 evaluate 2 3", "1 evaluate 4 3", "2 evaluate 4 2"},
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
	q       transport.Query
	sky     map[uncertain.TupleID]uncertain.SkylineMember
	sites   map[uncertain.TupleID]int
}

func (r *serialRef) call(site int, req transport.Request) *transport.Response {
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
			global *= r.call(j, transport.Request{Kind: transport.KindEvaluate, Query: r.q,
				Feed: transport.Feedback{Tuple: tu, HomeLocalProb: local}}).CrossProb
		}
	}
	return global
}

func (r *serialRef) admit(d *AnswerDelta, m uncertain.SkylineMember, home int) {
	r.sky[m.Tuple.ID], r.sites[m.Tuple.ID] = m, home
	d.upsert(m, home)
}

func (r *serialRef) insert(home int, tu uncertain.Tuple) (d AnswerDelta) {
	resp := r.call(home, transport.Request{Kind: transport.KindInsert, Tuple: tu, Query: r.q})
	if local := resp.Rep.LocalProb; local >= r.q.Threshold && !resp.Hopeless {
		if g := r.global(home, tu, local); g >= r.q.Threshold {
			r.admit(&d, uncertain.SkylineMember{Tuple: tu, Prob: g}, home)
		}
	}
	for id, member := range r.sky {
		if id != tu.ID && tu.Dominates(member.Tuple, r.q.Dims) {
			if member.Prob *= 1 - tu.Prob; member.Prob < r.q.Threshold {
				delete(r.sky, id)
				delete(r.sites, id)
				d.Removed = append(d.Removed, id)
			} else {
				r.admit(&d, member, r.sites[id])
			}
		}
	}
	return d
}

func (r *serialRef) delete(home int, tu uncertain.Tuple) (d AnswerDelta, homes map[int]bool) {
	r.call(home, transport.Request{Kind: transport.KindDelete, ID: tu.ID, Point: tu.Point})
	if _, was := r.sky[tu.ID]; was {
		d.Removed = append(d.Removed, tu.ID)
	}
	delete(r.sky, tu.ID)
	delete(r.sites, tu.ID)
	for id, member := range r.sky {
		if tu.Prob < 1 && tu.Dominates(member.Tuple, r.q.Dims) {
			if member.Prob /= 1 - tu.Prob; member.Prob > member.Tuple.Prob {
				member.Prob = member.Tuple.Prob
			}
			r.admit(&d, member, r.sites[id])
		}
	}
	resps := make([]*transport.Response, len(r.clients))
	for j := range r.clients {
		resps[j] = r.call(j, transport.Request{Kind: transport.KindCandidates, Feed: transport.Feedback{Tuple: tu}, Query: r.q})
	}
	homes = make(map[int]bool)
	for j, resp := range resps {
		for _, c := range resp.Tuples {
			if _, ok := r.sky[c.Tuple.ID]; !ok {
				homes[j] = true
				if g := r.global(j, c.Tuple, c.LocalProb); g >= r.q.Threshold {
					r.admit(&d, uncertain.SkylineMember{Tuple: c.Tuple, Prob: g}, j)
				}
			}
		}
	}
	return d, homes
}

// canonical renders a delta for comparison: the upserts by tuple id with
// their probability bits and home sites, then the removals, sorted. The
// rescored members come out of a map walk, so only the set is defined.
func canonical(d AnswerDelta) string {
	var lines []string
	for i, u := range d.Upserts {
		lines = append(lines, fmt.Sprintf("+%d %x @%d", u.Tuple.ID, math.Float64bits(u.Prob), d.UpsertSites[i]))
	}
	for _, id := range d.Removed {
		lines = append(lines, fmt.Sprintf("-%d", id))
	}
	slices.Sort(lines)
	return strings.Join(lines, "; ")
}

// TestUpdateWavesMatchSerialReference drives a seeded 300-op churn through
// the two-wave maintainer and, over an identical second cluster, through
// the serial reference: every delta must carry the same members with the
// same probabilities bit for bit and the same home sites, and after every
// op the two answers must agree in member order, bits and sites.
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
	maint, err := NewMaintainer(ctx, cluster, Options{Threshold: q})
	if err != nil {
		t.Fatal(err)
	}
	var got AnswerDelta
	maint.SetOnChange(func(delta AnswerDelta) { got = delta })

	ref := &serialRef{t: t, q: transport.Query{Threshold: q},
		sky: maps.Clone(maint.sky), sites: maps.Clone(maint.sites)}
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
		got = AnswerDelta{}
		var want AnswerDelta
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
			want = ref.insert(home, tu)
		} else {
			// Delete a member half the time: that is what promotes.
			idx := r.Intn(len(mirror[home]))
			if members, sites := maint.Answer(); r.Intn(2) == 0 && len(members) > 0 {
				if k := r.Intn(len(members)); sites[k] == home {
					idx = slices.IndexFunc(mirror[home], func(tu uncertain.Tuple) bool { return tu.ID == members[k].Tuple.ID })
				}
			}
			victim := mirror[home][idx]
			mirror[home] = slices.Delete(mirror[home], idx, idx+1)
			if err := maint.Delete(ctx, home, victim); err != nil {
				t.Fatalf("op %d delete: %v", op, err)
			}
			var homes map[int]bool
			want, homes = ref.delete(home, victim)
			if len(homes) > 1 {
				multiSite++
			}
		}
		if g, w := canonical(got), canonical(want); g != w {
			t.Fatalf("op %d: delta\n %s\nwant\n %s", op, g, w)
		}
		members, sites := maint.Answer()
		for k, member := range members {
			w, ok := ref.sky[member.Tuple.ID]
			if !ok || math.Float64bits(w.Prob) != math.Float64bits(member.Prob) || ref.sites[member.Tuple.ID] != sites[k] {
				t.Fatalf("op %d: member %d is %v at site %d, reference %v at site %d", op, k, member, sites[k], w, ref.sites[member.Tuple.ID])
			}
		}
		if len(members) != len(ref.sky) {
			t.Fatalf("op %d: %d members, reference %d", op, len(members), len(ref.sky))
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
// error, notifies nothing, and invalidates the served answer — the next
// covered read refreshes and is exact. A failed update followed straight by
// another update refreshes inside that update instead.
func TestFailedUpdateRefreshesServedReads(t *testing.T) {
	ctx := context.Background()
	cluster, _, gated := gatedCluster(t, waveParts(), 2)
	server, err := cluster.Serve(ctx, ServeConfig{Floor: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	notified := 0
	server.maint.SetOnChange(func(d AnswerDelta) { notified++; server.applyDelta(d) })
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

	fail(true)
	err = server.Delete(ctx, 0, waveD) // promotes a, b, c: site 2 evaluates two of them
	if !strings.HasPrefix(fmt.Sprint(err), "core: site 2 evaluate: ") || !errors.Is(err, errBoom) || notified != 0 {
		t.Fatalf("failed delete: %v with %d notifications; want site 2's evaluate error and none", err, notified)
	}
	fail(false)
	covered(SourceRefreshed)
	covered(SourceMaterialized)

	fail(true)
	err = server.Insert(ctx, 1, waveG) // qualifies locally: evaluated at sites 0 and 2
	if !errors.Is(err, errBoom) || notified != 1 {
		t.Fatalf("failed insert: %v with %d notifications (one is the refresh); want site 2's error", err, notified)
	}
	fail(false)
	live = append(live, waveG)
	if err := server.Delete(ctx, 1, waveE); err != nil { // refreshes first, then applies
		t.Fatal(err)
	}
	live = slices.DeleteFunc(live, func(tu uncertain.Tuple) bool { return tu.ID == waveE.ID })
	if refreshes := server.Stats().Refreshes; refreshes != 1 || notified != 2 {
		t.Fatalf("%d refresh rounds through the server and %d notifications, want the covered read's one and two", refreshes, notified)
	}
	covered(SourceMaterialized) // the delete's own refresh replaced the invalidated store
}
