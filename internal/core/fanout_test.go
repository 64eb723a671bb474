package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/msg"
	"repro/internal/site"
	"repro/internal/transport"
)

var errBoom = errors.New("boom")

// faultClient serves a site engine and counts its calls by kind. Armed on
// the first Evaluate fan-out: the home site's Next succeeds and signals,
// the site told to fail waits for that signal and then fails its
// Evaluate, and every other Evaluate of that fan-out hangs until the
// failure cancels it. It passes on no summary, so that fan-out sends every
// site but the home an Evaluate, routed by nothing.
type faultClient struct {
	eng      *site.Engine
	fail     bool
	nextDone chan struct{}
	once     *sync.Once

	mu    sync.Mutex
	calls map[msg.Kind]int
}

func (c *faultClient) Call(ctx context.Context, req *msg.Request) (*msg.Response, error) {
	c.mu.Lock()
	c.calls[req.Kind]++
	first := c.calls[req.Kind] == 1
	c.mu.Unlock()
	switch {
	case req.Kind == msg.KindNext && first:
		defer c.once.Do(func() { close(c.nextDone) })
	case req.Kind == msg.KindEvaluate && first && c.fail:
		<-c.nextDone
		return nil, errBoom
	case req.Kind == msg.KindEvaluate && first:
		<-ctx.Done()
		return nil, ctx.Err()
	}
	resp, err := c.eng.Handle(ctx, req)
	if err == nil {
		resp.Summary = msg.Summary{}
	}
	return resp, err
}

func (c *faultClient) Close() error { return nil }

// A mixed Evaluate+Next fan-out that fails returns the failing site's own
// error under its own kind, not the cancellations it caused, whether the
// failing call ran on a fan-out goroutine or on the caller's; and the
// home site's Next, which had already executed, is not sent again: the
// query fails instead of skipping a representative.
func TestFanoutFailureIsRootCauseAndFinal(t *testing.T) {
	parts, _ := makeWorkload(t, 400, 3, 4, gen.Independent, 31)
	opts := Options{Threshold: 0.3, Algorithm: DSUD} // no expunge: the first wait after Init is the broadcast
	home := -1
	probe := opts
	probe.OnEvent = func(e Event) {
		if e.Kind == EventFeedbackSelect && home < 0 {
			home = e.Site
		}
	}
	runAlgo(t, parts, 3, probe)
	for failing := range parts {
		if failing == home {
			continue // the home site is sent no Evaluate of its own tuple
		}
		nextDone, once := make(chan struct{}), new(sync.Once)
		fakes := make([]*faultClient, len(parts))
		clients := make([]transport.Client, len(parts))
		for i, part := range parts {
			fakes[i] = &faultClient{eng: site.New(i, part, 3, 0), fail: i == failing,
				nextDone: nextDone, once: once, calls: make(map[msg.Kind]int)}
			clients[i] = fakes[i]
		}
		cluster, err := NewClusterFromClients(clients, 3)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(context.Background(), cluster, opts)
		want := fmt.Sprintf("core: site %d evaluate: ", failing)
		if rep != nil || err == nil || !strings.HasPrefix(err.Error(), want) || !errors.Is(err, errBoom) || errors.Is(err, context.Canceled) {
			t.Errorf("site %d failing: report %v, error %v; want no report and %q wrapping the site's own error", failing, rep, err, want)
		}
		for i, f := range fakes {
			wantNext := 0
			if i == home {
				wantNext = 1
			}
			if f.calls[msg.KindInit] != 1 || f.calls[msg.KindNext] != wantNext || f.calls[msg.KindEvaluate] > 1 {
				t.Errorf("site %d failing: site %d saw %v, want one Init, %d Next, at most one Evaluate", failing, i, f.calls, wantNext)
			}
		}
	}
}

// A MaxResults run ships what the loop that waited once per refill
// shipped: the home site's Next is held back whenever this round's report
// could be the last, so no site sends a tuple the answer never needed.
// The numbers were recorded from that loop.
func TestMaxResultsShipsNoSpeculativeTuple(t *testing.T) {
	parts, _ := makeWorkload(t, 600, 3, 4, gen.Independent, 47)
	for _, tc := range []struct {
		algo    Algorithm
		max     int
		up      int64
		shipped []int64
	}{
		{DSUD, 1, 6, []int64{2, 1, 2, 1}},
		{DSUD, 4, 9, []int64{2, 2, 2, 3}},
		{EDSUD, 1, 6, []int64{2, 1, 2, 1}},
		{EDSUD, 4, 10, []int64{2, 3, 2, 3}},
	} {
		rep := runAlgo(t, parts, 3, Options{Threshold: 0.3, Algorithm: tc.algo, MaxResults: tc.max})
		shipped := make([]int64, len(rep.PerSite))
		for i, s := range rep.PerSite {
			shipped[i] = s.Shipped
		}
		// The fresh cluster's Init also fetched the sites' summaries.
		up := rep.Bandwidth.TuplesUp - int64(certainSkylinePoints(parts, nil))
		if len(rep.Skyline) != tc.max || up != tc.up || !slices.Equal(shipped, tc.shipped) {
			t.Errorf("%v max=%d: %d answers, %d tuples up, shipped %v; want %d up, %v",
				tc.algo, tc.max, len(rep.Skyline), up, shipped, tc.up, tc.shipped)
		}
	}
}

// An 8-site evaluate broadcast to in-process sites allocates the sites'
// eight replies and the fan-out's cancellable context, and nothing else:
// the sites answer on the caller's goroutine, so a fan-out starts no
// goroutine and builds no per-site closure. The goroutine-per-call
// fan-out took 19 allocations here.
func TestFanoutInProcessAllocs(t *testing.T) {
	parts, _ := makeWorkload(t, 800, 2, 8, gen.Independent, 53)
	cluster, err := Open(ClusterConfig{Partitions: parts, Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	v := cluster.newView(nil, 0, msg.Query{})
	feed := parts[0][0]
	req := msg.Request{Kind: msg.KindEvaluate, Feed: msg.Feedback{Tuple: feed, HomeLocalProb: feed.Prob}}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := v.send(ctx, -1, req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 10 {
		t.Errorf("an 8-site in-process fan-out took %.1f allocations, want at most 10", allocs)
	}
}
