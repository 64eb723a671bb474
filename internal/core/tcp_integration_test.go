package core

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/msg"
	"repro/internal/site"
	"repro/internal/transport"
	"repro/internal/uncertain"
)

// startTCPSites serves each partition from a real TCP server and returns
// the listen addresses.
func startTCPSites(t *testing.T, parts []uncertain.DB, dims int) []string {
	t.Helper()
	addrs := make([]string, len(parts))
	for i, part := range parts {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := transport.NewServer(site.New(i, part, dims, 0), nil)
		go srv.Serve(lis)
		t.Cleanup(func() { srv.Close() })
		addrs[i] = lis.Addr().String()
	}
	return addrs
}

// The full protocol must produce identical answers over real sockets and
// the in-process transport, for every algorithm.
func TestTCPClusterMatchesLocal(t *testing.T) {
	parts, union := makeWorkload(t, 600, 3, 5, gen.Anticorrelated, 61)
	want := union.Skyline(0.3, nil)

	addrs := startTCPSites(t, parts, 3)
	cluster, err := Open(ClusterConfig{Addrs: addrs, Dims: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	for _, algo := range []Algorithm{Baseline, DSUD, EDSUD} {
		rep, err := Run(context.Background(), cluster, Options{Threshold: 0.3, Algorithm: algo})
		if err != nil {
			t.Fatalf("%v over TCP: %v", algo, err)
		}
		if !uncertain.MembersEqual(rep.Skyline, want, 1e-9) {
			t.Fatalf("%v over TCP: %d members, oracle %d", algo, len(rep.Skyline), len(want))
		}
		if rep.Bandwidth.Bytes == 0 {
			t.Errorf("%v over TCP: expected nonzero wire bytes", algo)
		}
	}

	// Tuple accounting must be transport-independent: compare against a
	// local cluster run of the same query, once the local cluster too
	// holds the sites' summaries (the TCP one fetched them above).
	local, err := Open(ClusterConfig{Partitions: parts, Dims: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	var lrep *Report
	for range 2 {
		if lrep, err = Run(context.Background(), local, Options{Threshold: 0.3, Algorithm: EDSUD}); err != nil {
			t.Fatal(err)
		}
	}
	trep, err := Run(context.Background(), cluster, Options{Threshold: 0.3, Algorithm: EDSUD})
	if err != nil {
		t.Fatal(err)
	}
	if lrep.Bandwidth.Tuples() != trep.Bandwidth.Tuples() {
		t.Fatalf("tuple accounting differs across transports: local %d, tcp %d",
			lrep.Bandwidth.Tuples(), trep.Bandwidth.Tuples())
	}
}

func TestTCPMaintainer(t *testing.T) {
	parts, union := makeWorkload(t, 200, 2, 3, gen.Independent, 62)
	addrs := startTCPSites(t, parts, 2)
	cluster, err := Open(ClusterConfig{Addrs: addrs, Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	ctx := context.Background()
	maint, err := cluster.Serve(ctx, ServeConfig{Floor: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	mirror := make([]uncertain.DB, len(parts))
	for i := range parts {
		mirror[i] = parts[i].Clone()
	}
	nextID := uncertain.TupleID(len(union) + 1)
	tu := uncertain.Tuple{ID: nextID, Point: []float64{0.01, 0.01}, Prob: 0.9}
	if err := maint.Insert(ctx, 0, tu); err != nil {
		t.Fatal(err)
	}
	mirror[0] = append(mirror[0], tu)
	victim := mirror[1][0]
	mirror[1] = mirror[1][1:]
	if err := maint.Delete(ctx, 1, victim); err != nil {
		t.Fatal(err)
	}
	want := uncertain.Union(mirror).Skyline(0.3, nil)
	if !uncertain.MembersEqual(maint.Skyline(), want, 1e-6) {
		t.Fatalf("TCP maintenance diverged: %d vs %d", len(maint.Skyline()), len(want))
	}
}

func TestNewRemoteClusterDialFailure(t *testing.T) {
	if _, err := Open(ClusterConfig{Addrs: []string{"127.0.0.1:1"}, Dims: 2}); err == nil {
		t.Skip("port 1 unexpectedly open")
	}
	if _, err := Open(ClusterConfig{Dims: 2}); err == nil {
		t.Fatal("empty address list must be rejected")
	}
}

func TestRetryRemoteClusterEndToEnd(t *testing.T) {
	parts, union := makeWorkload(t, 300, 3, 4, gen.Independent, 63)
	addrs := startTCPSites(t, parts, 3)
	cluster, err := Open(ClusterConfig{Addrs: addrs, Dims: 3, RetryAttempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	rep, err := Run(context.Background(), cluster, Options{Threshold: 0.3, Algorithm: EDSUD})
	if err != nil {
		t.Fatal(err)
	}
	want := union.Skyline(0.3, nil)
	if !uncertain.MembersEqual(rep.Skyline, want, 1e-9) {
		t.Fatalf("retry cluster mismatch: %d vs %d", len(rep.Skyline), len(want))
	}
	if _, err := Open(ClusterConfig{Dims: 3, RetryAttempts: 3}); err == nil {
		t.Fatal("empty address list must be rejected")
	}
}

// A kind number past MaxKind — a retired kind from an older build, or
// garbage — is answered with the site's error like any failed request;
// the mux connection carries on.
func TestUnknownKindOverMuxKeepsConnection(t *testing.T) {
	parts, _ := makeWorkload(t, 50, 2, 1, gen.Independent, 67)
	addrs := startTCPSites(t, parts, 2)
	c, err := transport.DialAuto(addrs[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	_, err = c.Call(ctx, &msg.Request{Kind: msg.Kind(msg.MaxKind + 1)})
	if err == nil || !strings.Contains(err.Error(), "unknown request kind") {
		t.Fatalf("kind MaxKind+1: %v, want the site's unknown-request-kind error", err)
	}
	resp, err := c.Call(ctx, &msg.Request{Kind: msg.KindStatus})
	if err != nil || resp.Status == nil || resp.Status.Tuples != 50 {
		t.Fatalf("status call on the same connection after the bad kind: %+v, %v", resp, err)
	}
}

// firstEvaluate serves a site engine over TCP and spoils the first
// evaluate it is sent: it fails it when fail is set, and otherwise
// answers it late, after a pause that ignores the request's cancellation.
type firstEvaluate struct {
	eng  *site.Engine
	fail bool
	seen atomic.Bool
}

func (h *firstEvaluate) Handle(ctx context.Context, req *msg.Request) (*msg.Response, error) {
	if req.Kind == msg.KindEvaluate && !h.seen.Swap(true) {
		if h.fail {
			return nil, errBoom
		}
		time.Sleep(20 * time.Millisecond)
	}
	return h.eng.Handle(ctx, req)
}

// Over TCP, a fan-out that fails at one site while the others answer late
// leaves nothing behind: the query fails with that site's error, and the
// next query on the same cluster and connections equals the oracle. On
// one view (a Server keeps one for its life), the fan-out after such
// a failure reads its own replies, not the late ones.
func TestTCPFailedFanoutLeavesNoLateReply(t *testing.T) {
	parts, union := makeWorkload(t, 600, 3, 4, gen.Independent, 79)
	addrs := make([]string, len(parts))
	sites := make([]*firstEvaluate, len(parts))
	for i, part := range parts {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		sites[i] = &firstEvaluate{eng: site.New(i, part, 3, 0), fail: i == 2}
		srv := transport.NewServer(sites[i], nil)
		go srv.Serve(lis)
		t.Cleanup(func() { srv.Close() })
		addrs[i] = lis.Addr().String()
	}
	cluster, err := Open(ClusterConfig{Addrs: addrs, Dims: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx := context.Background()
	opts := Options{Threshold: 0.3, Algorithm: DSUD}
	if rep, err := cluster.Query(ctx, opts); rep != nil || err == nil || !strings.Contains(err.Error(), errBoom.Error()) {
		t.Fatalf("query through the failing site: report %v, error %v; want the site's own error", rep, err)
	}
	rep, err := cluster.Query(ctx, opts)
	if err != nil {
		t.Fatalf("query after the failed fan-out: %v", err)
	}
	if !uncertain.MembersEqual(rep.Skyline, union.Skyline(0.3, nil), 1e-9) {
		t.Fatal("query after the failed fan-out disagreed with the oracle")
	}

	for _, s := range sites {
		s.seen.Store(false)
	}
	v := cluster.newView(nil, 0, msg.Query{Threshold: 0.3})
	feed := parts[0][0]
	if _, err := v.send(ctx, -1, msg.Request{Kind: msg.KindEvaluate, Feed: msg.Feedback{Tuple: feed, HomeLocalProb: feed.Prob}}); !strings.Contains(fmt.Sprint(err), errBoom.Error()) {
		t.Fatalf("evaluate fan-out through the failing site: %v, want the site's own error", err)
	}
	resps, err := v.send(ctx, -1, msg.Request{Kind: msg.KindStatus})
	if err != nil {
		t.Fatalf("status fan-out after the failed one: %v", err)
	}
	for i, resp := range resps {
		if resp.Status == nil || resp.Status.Tuples != len(parts[i]) {
			t.Errorf("site %d: status fan-out read %+v, want site %d's status", i, resp, i)
		}
	}
}
