package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/msg"
	"repro/internal/site"
	"repro/internal/transport"
	"repro/internal/uncertain"
)

// chaosClient forwards calls to a site engine but, with probability p,
// pretends the connection died *after* the engine processed the request —
// the lost-response failure that corrupts non-idempotent protocols unless
// sequence-number dedup works.
type chaosClient struct {
	eng  *site.Engine
	r    *rand.Rand
	mu   sync.Mutex
	p    float64
	dead bool
}

var errChaos = errors.New("chaos: connection dropped")

func (c *chaosClient) Call(ctx context.Context, req *msg.Request) (*msg.Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return nil, errChaos
	}
	resp, err := c.eng.Handle(ctx, req)
	if c.r.Float64() < c.p {
		c.dead = true
		return nil, errChaos
	}
	return resp, err
}

func (c *chaosClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dead = true
	return nil
}

// TestQuerySurvivesLostResponses runs the full protocol while every
// site's connection drops ~10% of responses after execution. With Retry +
// sequence dedup the answer must still be exactly the oracle's.
func TestQuerySurvivesLostResponses(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		parts, union := makeWorkload(t, 400, 3, 5, gen.Anticorrelated, int64(130+trial))
		engines := make([]*site.Engine, len(parts))
		for i, part := range parts {
			engines[i] = site.New(i, part, 3, 0)
		}
		clients := make([]transport.Client, len(parts))
		retriers := make([]*transport.RetryClient, len(parts))
		for i := range clients {
			eng := engines[i]
			r := rand.New(rand.NewSource(int64(trial*100 + i)))
			dial := func() (transport.Client, error) {
				return &chaosClient{eng: eng, r: r, p: 0.1}, nil
			}
			retriers[i] = transport.Retry(dial, 50)
			clients[i] = retriers[i]
		}
		cluster, err := NewClusterFromClients(clients, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range []Algorithm{DSUD, EDSUD} {
			rep, err := Run(context.Background(), cluster, Options{Threshold: 0.3, Algorithm: algo})
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, algo, err)
			}
			want := union.Skyline(0.3, nil)
			if !uncertain.MembersEqual(rep.Skyline, want, 1e-9) {
				t.Fatalf("trial %d %v: chaos corrupted the answer (%d vs %d)",
					trial, algo, len(rep.Skyline), len(want))
			}
		}
		// The right answer alone doesn't prove the fault path was
		// exercised: the retry accounting must show the machinery worked.
		// With p=0.1 per response across two full query runs per trial,
		// at least one site certainly lost responses — and every loss must
		// have been repaired by a retry over a redialled connection, never
		// by giving up.
		var total transport.RetrySnapshot
		for i, rc := range retriers {
			s := rc.Stats()
			if s.Failures != 0 {
				t.Fatalf("trial %d site %d: %d calls exhausted retries: %+v", trial, i, s.Failures, s)
			}
			if s.Retries < s.Redials {
				t.Fatalf("trial %d site %d: redials without retries: %+v", trial, i, s)
			}
			total.Calls += s.Calls
			total.Retries += s.Retries
			total.Redials += s.Redials
		}
		if total.Retries == 0 || total.Redials == 0 {
			t.Fatalf("trial %d: chaos at p=0.1 produced no retries (%+v) — the fault injection is dead", trial, total)
		}
		cluster.Close()
	}
}

// Without dedup (no Retry wrapper assigning sequence numbers), a replayed
// Next would double-pop — this guard test documents why Seq exists: the
// engine must replay, not re-execute, an identical sequence number. The
// dedup is windowed (site.DedupWindow) because concurrent mux callers
// deliver sequences out of order: any cached sequence replays its
// original outcome, unseen sequences above the eviction floor are first
// deliveries, and only evicted sequences are refused.
func TestSequenceDedupAtEngine(t *testing.T) {
	parts, _ := makeWorkload(t, 100, 2, 1, gen.Independent, 140)
	eng := site.New(0, parts[0], 2, 0)
	ctx := context.Background()
	if _, err := eng.Handle(ctx, &msg.Request{
		Seq: 1, Kind: msg.KindInit,
		Query: msg.Query{Threshold: 0.1},
	}); err != nil {
		t.Fatal(err)
	}
	first, err := eng.Handle(ctx, &msg.Request{Seq: 2, Kind: msg.KindNext})
	if err != nil {
		t.Fatal(err)
	}
	replay, err := eng.Handle(ctx, &msg.Request{Seq: 2, Kind: msg.KindNext})
	if err != nil {
		t.Fatal(err)
	}
	if replay.Rep.Tuple.ID != first.Rep.Tuple.ID {
		t.Fatalf("replayed Seq returned a different tuple: %v vs %v", replay.Rep, first.Rep)
	}
	fresh, err := eng.Handle(ctx, &msg.Request{Seq: 3, Kind: msg.KindNext})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Rep.Tuple.ID == first.Rep.Tuple.ID {
		t.Fatal("a fresh sequence number must advance the stream")
	}

	// An old-but-cached sequence replays its original outcome — it must
	// not re-execute and advance the stream.
	if _, err := eng.Handle(ctx, &msg.Request{Seq: 1, Kind: msg.KindNext}); err != nil {
		t.Fatalf("in-window old sequence must replay its cached outcome, got error: %v", err)
	}
	after, err := eng.Handle(ctx, &msg.Request{Seq: 4, Kind: msg.KindNext})
	if err != nil {
		t.Fatal(err)
	}
	if !after.Exhausted && (after.Rep.Tuple.ID == first.Rep.Tuple.ID || after.Rep.Tuple.ID == fresh.Rep.Tuple.ID) {
		t.Fatal("replaying an old sequence must not consume a stream position")
	}

	// Sequences may arrive out of order (concurrent mux senders): an
	// unseen sequence below the highest served one is a first delivery.
	if _, err := eng.Handle(ctx, &msg.Request{Seq: 6, Kind: msg.KindNext}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Handle(ctx, &msg.Request{Seq: 5, Kind: msg.KindNext}); err != nil {
		t.Fatalf("out-of-order first delivery must be served, got: %v", err)
	}

	// Push Seq 1 out of the dedup window; its retry must then be refused
	// (never silently re-executed).
	for s := uint64(7); s < uint64(site.DedupWindow)+10; s++ {
		if _, err := eng.Handle(ctx, &msg.Request{Seq: s, Kind: msg.KindNext}); err != nil {
			t.Fatalf("seq %d: %v", s, err)
		}
	}
	if _, err := eng.Handle(ctx, &msg.Request{Seq: 1, Kind: msg.KindNext}); err == nil {
		t.Fatal("sequences evicted from the dedup window must be rejected")
	}
}

// Two independent retrying coordinators must be able to share one site:
// their sequence spaces are client-scoped, so neither sees the other's
// numbers as stale.
func TestTwoCoordinatorsShareSites(t *testing.T) {
	parts, union := makeWorkload(t, 300, 2, 3, gen.Independent, 141)
	engines := make([]*site.Engine, len(parts))
	for i, part := range parts {
		engines[i] = site.New(i, part, 2, 0)
	}
	mkCluster := func() *Cluster {
		clients := make([]transport.Client, len(engines))
		for i := range clients {
			eng := engines[i]
			clients[i] = transport.Retry(func() (transport.Client, error) {
				return transport.Local(eng), nil
			}, 3)
		}
		cluster, err := NewClusterFromClients(clients, 2)
		if err != nil {
			t.Fatal(err)
		}
		return cluster
	}
	a, b := mkCluster(), mkCluster()
	defer a.Close()
	defer b.Close()
	want := union.Skyline(0.3, nil)

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := a
			if i%2 == 1 {
				cl = b
			}
			rep, err := Run(context.Background(), cl, Options{Threshold: 0.3})
			if err != nil {
				errs[i] = err
				return
			}
			if !uncertain.MembersEqual(rep.Skyline, want, 1e-9) {
				errs[i] = errChaos
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("coordinator run %d: %v", i, err)
		}
	}
}

// restartClient serves a site engine and restarts it — a fresh engine over
// the same partition, holding no session — before the first request after
// Init, as a site daemon that crashed and came back between a query's Init
// and its first broadcast.
// first is what the restarted engine answered its first request.
type restartClient struct {
	mu        sync.Mutex
	eng       *site.Engine
	part      uncertain.DB
	restarted bool
	first     error
	// pruning says the first request after the restart was one that
	// prunes: an evaluate, or a next carrying feedback the site was owed.
	pruning bool
}

func (c *restartClient) Call(ctx context.Context, req *msg.Request) (*msg.Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if req.Kind == msg.KindInit || req.Kind == msg.KindEndQuery || c.restarted {
		return c.eng.Handle(ctx, req)
	}
	c.eng, c.restarted = site.New(c.eng.ID(), c.part, 3, 0), true
	resp, err := c.eng.Handle(ctx, req)
	c.first = fmt.Errorf("%v: %w", req.Kind, err)
	c.pruning = req.Kind == msg.KindEvaluate || len(req.Tuples) > 0
	return resp, err
}

func (c *restartClient) Close() error { return nil }

// A site that restarts between a subspace query's Init and its first
// broadcast holds no session for it. The first request it is sent there —
// an evaluate, a next carrying the feedback it is owed, or the home site's
// Next — fails with site.ErrNoSession rather than answering a full-space
// factor without pruning, which would give a [0,2] query a silently wrong
// P_g-sky; the query fails with it. What it delivered before that request
// was routed past the site by its summary, which holds no dominator of it,
// and is the oracle's.
func TestSiteRestartFailsTyped(t *testing.T) {
	parts, union := makeWorkload(t, 400, 3, 4, gen.Independent, 31)
	oracle := map[uncertain.TupleID]float64{}
	for _, m := range union.Skyline(0.3, []int{0, 2}) {
		oracle[m.Tuple.ID] = m.Prob
	}
	pruning := 0
	for restarted := range parts {
		clients := make([]transport.Client, len(parts))
		var restart *restartClient
		for i, part := range parts {
			eng := site.New(i, part, 3, 0)
			clients[i] = transport.Local(eng)
			if i == restarted {
				restart = &restartClient{eng: eng, part: part}
				clients[i] = restart
			}
		}
		cluster, err := NewClusterFromClients(clients, 3)
		if err != nil {
			t.Fatal(err)
		}
		var delivered []Result
		rep, err := Run(context.Background(), cluster, Options{Threshold: 0.3, Algorithm: EDSUD, Dims: []int{0, 2},
			OnResult: func(r Result) { delivered = append(delivered, r) }})
		if rep != nil || !errors.Is(err, site.ErrNoSession) || !errors.Is(restart.first, site.ErrNoSession) {
			t.Fatalf("site %d restarted: report %v after %d deliveries, error %v, first request after the restart %v; want site.ErrNoSession",
				restarted, rep, len(delivered), err, restart.first)
		}
		for _, r := range delivered {
			if p, ok := oracle[r.Tuple.ID]; !ok || math.Abs(p-r.GlobalProb) > 1e-9 {
				t.Fatalf("site %d restarted: delivered %v at %v before failing, oracle %v (%v)", restarted, r.Tuple, r.GlobalProb, p, ok)
			}
		}
		if restart.pruning {
			pruning++
		}
	}
	if pruning == 0 {
		t.Error("no restarted site was first sent a request that prunes: an evaluate, or a next carrying feedback")
	}
}
