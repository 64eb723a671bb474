package core

import (
	"context"
	"net"
	"strings"
	"testing"

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
	// local cluster run of the same query.
	local, err := Open(ClusterConfig{Partitions: parts, Dims: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	lrep, err := Run(context.Background(), local, Options{Threshold: 0.3, Algorithm: EDSUD})
	if err != nil {
		t.Fatal(err)
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
	maint, err := NewMaintainer(ctx, cluster, Options{Threshold: 0.3})
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
