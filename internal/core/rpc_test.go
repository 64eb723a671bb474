package core

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/gen"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/transport"
	"repro/internal/uncertain"
)

// rpc sends req to site i alone: a fan-out of one through the call path
// every query and health sweep takes.
func (v *view) rpc(ctx context.Context, i int, req *msg.Request) (*msg.Response, error) {
	resps, err := v.send(ctx, i, *req)
	return resps[i], err
}

// rpcCount reads one dsud_rpc_requests_total series.
func rpcCount(reg *obs.Registry, site int, k msg.Kind, outcome string) int64 {
	return reg.Counter("dsud_rpc_requests_total", "site", strconv.Itoa(site), "kind", k.String(), "outcome", outcome).Value()
}

// rpcTotal sums dsud_rpc_requests_total over every site and kind.
func rpcTotal(reg *obs.Registry, sites int, outcome string) int64 {
	var n int64
	for i := 0; i < sites; i++ {
		for k := 1; k <= msg.MaxKind; k++ {
			n += rpcCount(reg, i, msg.Kind(k), outcome)
		}
	}
	return n
}

// Open with Metrics instruments the cluster; calling Instrument again on
// the same registry must re-resolve the same series, not count each call
// a second time.
func TestInstrumentTwiceCountsOnce(t *testing.T) {
	parts, _ := makeWorkload(t, 300, 2, 3, gen.Independent, 83)
	reg := obs.NewRegistry()
	cluster, err := Open(ClusterConfig{Partitions: parts, Dims: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cluster.Instrument(reg)
	if _, err := cluster.Query(context.Background(), Options{Threshold: 0.3}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(parts); i++ {
		if got := rpcCount(reg, i, msg.KindInit, "ok"); got != 1 {
			t.Errorf("site %d: init ok = %d after one query, want 1", i, got)
		}
	}
	if got, want := rpcTotal(reg, len(parts), "ok"), cluster.Meter().Snapshot().Messages; got != want {
		t.Errorf("rpc counters total %d, cluster meter %d messages", got, want)
	}
}

// scriptedHandler answers every kind; Next carries a representative, and
// err, when set, fails every request.
type scriptedHandler struct{ err error }

func (h *scriptedHandler) Handle(_ context.Context, req *msg.Request) (*msg.Response, error) {
	if h.err != nil {
		return nil, h.err
	}
	if req.Kind == msg.KindNext {
		return &msg.Response{Rep: msg.Representative{Tuple: uncertain.Tuple{ID: 1, Point: []float64{1, 2}, Prob: 0.5}}}, nil
	}
	return &msg.Response{}, nil
}

// scriptedCluster is one in-process site answered by h, instrumented
// against reg when reg is not nil, with a view carrying its own meter.
func scriptedCluster(t *testing.T, h transport.Handler, reg *obs.Registry) (*Cluster, *view) {
	t.Helper()
	cluster, err := NewClusterFromClients([]transport.Client{transport.Local(h)}, 2)
	if err != nil {
		t.Fatal(err)
	}
	cluster.Instrument(reg)
	v := cluster.newView(nil, 0, msg.Query{})
	v.meter = &transport.Meter{}
	return cluster, v
}

// Every call is timed and counted by outcome; a failed call is counted
// and timed but charged to no meter.
func TestRPCCountsTimesAndMeters(t *testing.T) {
	reg := obs.NewRegistry()
	h := &scriptedHandler{}
	cluster, v := scriptedCluster(t, h, reg)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := v.rpc(ctx, 0, &msg.Request{Kind: msg.KindNext}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := v.rpc(ctx, 0, &msg.Request{Kind: msg.KindEvaluate}); err != nil {
		t.Fatal(err)
	}
	h.err = errors.New("boom")
	if _, err := v.rpc(ctx, 0, &msg.Request{Kind: msg.KindNext}); err == nil {
		t.Fatal("handler error must propagate")
	}

	if got := rpcCount(reg, 0, msg.KindNext, "ok"); got != 3 {
		t.Fatalf("next ok = %d, want 3", got)
	}
	if got := rpcCount(reg, 0, msg.KindNext, "error"); got != 1 {
		t.Fatalf("next error = %d, want 1", got)
	}
	if got := reg.Histogram("dsud_rpc_duration_seconds", nil, "site", "0", "kind", "evaluate").Snapshot().Count; got != 1 {
		t.Fatalf("evaluate latency observations = %d, want 1", got)
	}
	if got := reg.Histogram("dsud_rpc_duration_seconds", nil, "site", "0", "kind", "next").Snapshot().Count; got != 4 {
		t.Fatalf("next latency observations = %d, want 4 (failed calls are timed too)", got)
	}
	want := transport.Snapshot{TuplesUp: 3, TuplesDown: 1, Messages: 4}
	if got := cluster.Meter().Snapshot(); got != want {
		t.Fatalf("cluster meter %+v, want %+v", got, want)
	}
	if got := v.meter.Snapshot(); got != want {
		t.Fatalf("view meter %+v, want %+v", got, want)
	}
}

// Every Kind that has a name is measured once instrumented, status
// included: a kind added to the enum without MaxKind following it would
// go uncounted.
func TestRPCInstrumentsEveryKind(t *testing.T) {
	reg := obs.NewRegistry()
	_, v := scriptedCluster(t, &scriptedHandler{}, reg)
	named := 0
	// Walk past MaxKind so a named kind beyond the bound fails here.
	for k := msg.Kind(1); int(k) <= msg.MaxKind+8; k++ {
		if strings.HasPrefix(k.String(), "Kind(") {
			continue
		}
		named++
		if _, err := v.rpc(context.Background(), 0, &msg.Request{Kind: k}); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if got := rpcCount(reg, 0, k, "ok"); got != 1 {
			t.Errorf("kind %v: ok counter = %d after one call, want 1", k, got)
		}
	}
	if named != msg.MaxKind {
		t.Errorf("%d named kinds, MaxKind = %d", named, msg.MaxKind)
	}
}

// An uninstrumented cluster holds no instruments, so rpc takes no clock
// reading for them; a nil registry leaves it that way.
func TestRPCUninstrumentedTakesNoTiming(t *testing.T) {
	cluster, v := scriptedCluster(t, &scriptedHandler{}, nil)
	if cluster.rpcs != nil {
		t.Fatal("Instrument(nil) resolved instruments")
	}
	if _, err := v.rpc(context.Background(), 0, &msg.Request{Kind: msg.KindStatus}); err != nil {
		t.Fatal(err)
	}
	if got := cluster.Meter().Snapshot().Messages; got != 1 {
		t.Fatalf("uninstrumented call not metered: %d messages", got)
	}
}

// ClusterConfig.Latency delays every call to an in-process site, a
// context that ends during the delay fails the call promptly with its
// error, and zero latency adds no delay at all.
func TestClusterLatencyDelaysEachCall(t *testing.T) {
	parts, _ := makeWorkload(t, 50, 2, 2, gen.Independent, 89)
	const latency = 30 * time.Millisecond
	cluster, err := Open(ClusterConfig{Partitions: parts, Dims: 2, Latency: latency})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	v := cluster.newView(nil, 0, msg.Query{})
	start := time.Now()
	if _, err := v.rpc(context.Background(), 0, &msg.Request{Kind: msg.KindStatus}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < latency-5*time.Millisecond {
		t.Fatalf("latency not applied: %v", elapsed)
	}
	start = time.Now()
	if h := cluster.Health(context.Background()); !h[0].Healthy() || !h[1].Healthy() {
		t.Fatalf("health under latency: %+v", h)
	}
	if elapsed := time.Since(start); elapsed < latency-5*time.Millisecond {
		t.Fatalf("health probe not delayed: %v", elapsed)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start = time.Now()
	if _, err := v.rpc(ctx, 0, &msg.Request{Kind: msg.KindStatus}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("call cut short by its context returned %v", err)
	}
	if elapsed := time.Since(start); elapsed >= latency {
		t.Fatalf("cancelled call waited out the latency: %v", elapsed)
	}
	if got := cluster.Meter().Snapshot().Messages; got != 3 {
		t.Fatalf("cluster meter counted %d messages, want 3 (the cancelled call is not charged)", got)
	}

	plain, err := Open(ClusterConfig{Partitions: parts, Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if plain.latency != 0 {
		t.Fatalf("latency %v without ClusterConfig.Latency", plain.latency)
	}
	done, stop := context.WithCancel(context.Background())
	stop()
	if err := sleep(done, 0); err != nil {
		t.Fatalf("zero latency waited on its context: %v", err)
	}
}

// Everything the call path does, checked at once over TCP with metrics,
// a trace and recording all on: the transcript holds exactly the
// calls the query's meter charged and their wire bytes, the query's meter
// equals the cluster meter's delta over it, and the rpc counters count
// exactly the messages the cluster meter did — maintainer updates and
// status probes included.
func TestOneCallPathAccountsEveryRPC(t *testing.T) {
	parts, union := makeWorkload(t, 400, 2, 3, gen.Anticorrelated, 97)
	addrs := startTCPSites(t, parts, 2)
	reg := obs.NewRegistry()
	fr := flight.New(4)
	cluster, err := Open(ClusterConfig{Addrs: addrs, Dims: 2, Metrics: reg,
		TranscriptDir: t.TempDir(), FlightRecorder: fr})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx := context.Background()
	m := len(parts)
	start := cluster.Meter().Snapshot()
	startRPCs := rpcTotal(reg, m, "ok")

	trace := NewTrace()
	before := cluster.Meter().Snapshot()
	rep, tr, _ := recordQuery(t, cluster, fr, Options{Threshold: 0.3, Algorithm: EDSUD, Trace: trace})
	if !uncertain.MembersEqual(rep.Skyline, union.Skyline(0.3, nil), 1e-9) {
		t.Fatal("query disagreed with the oracle")
	}
	var requests, wire int64
	for _, m := range tr.Messages {
		if m.Dir == codec.TranscriptDirRequest {
			requests++
		} else {
			wire += m.WireBytes
		}
	}
	if rep.Bandwidth.Messages != requests {
		t.Errorf("report charged %d messages, transcript holds %d requests", rep.Bandwidth.Messages, requests)
	}
	if rep.Bandwidth.Bytes == 0 || rep.Bandwidth.Bytes != wire {
		t.Errorf("report charged %d bytes, transcript responses carry %d", rep.Bandwidth.Bytes, wire)
	}
	if got := cluster.Meter().Snapshot().Sub(before); got != rep.Bandwidth {
		t.Errorf("cluster meter moved %+v over the query, report says %+v", got, rep.Bandwidth)
	}
	if sites := trace.Summary().Sites; len(sites) != m {
		t.Errorf("the trace timed calls to %d sites, want %d", len(sites), m)
	} else {
		for i, st := range sites {
			if st.ServiceNS <= 0 {
				t.Errorf("site %d: the trace holds ServiceNS %d, want > 0", i, st.ServiceNS)
			}
		}
	}

	maint, err := NewMaintainer(ctx, cluster, Options{Threshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if err := maint.Insert(ctx, 0, uncertain.Tuple{ID: uncertain.TupleID(len(union) + 1), Point: []float64{0.01, 0.01}, Prob: 0.9}); err != nil {
		t.Fatal(err)
	}
	if err := maint.Delete(ctx, 1, parts[1][0]); err != nil {
		t.Fatal(err)
	}
	for _, h := range cluster.Health(ctx) {
		if !h.Healthy() {
			t.Fatalf("site %d: %v", h.Site, h.Err)
		}
	}
	moved := cluster.Meter().Snapshot().Sub(start)
	if got := rpcTotal(reg, m, "ok") - startRPCs; got != moved.Messages {
		t.Errorf("rpc counters moved by %d, cluster meter by %d messages", got, moved.Messages)
	}
	if got := rpcTotal(reg, m, "error"); got != 0 {
		t.Errorf("%d failed calls counted", got)
	}
	var status int64
	for i := 0; i < m; i++ {
		status += rpcCount(reg, i, msg.KindStatus, "ok")
	}
	if status != int64(m) {
		t.Errorf("%d status probes counted, want %d", status, m)
	}
}

// ClusterConfig.Latency is one simulated round trip per fan-out, not one
// per call: a broadcast to eight in-process sites, which answer one after
// another on the caller's goroutine, still takes about one latency.
func TestClusterLatencyIsOnePerFanout(t *testing.T) {
	parts, _ := makeWorkload(t, 160, 2, 8, gen.Independent, 59)
	const latency = 20 * time.Millisecond
	cluster, err := Open(ClusterConfig{Partitions: parts, Dims: 2, Latency: latency})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	v := cluster.newView(nil, 0, msg.Query{})
	start := time.Now()
	if _, err := v.send(context.Background(), -1, msg.Request{Kind: msg.KindStatus}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < latency || elapsed >= 2*latency {
		t.Fatalf("an 8-site fan-out under %v latency took %v, want at least one latency and under two", latency, elapsed)
	}
	if got := cluster.Meter().Snapshot().Messages; got != 8 {
		t.Fatalf("cluster meter counted %d messages, want 8", got)
	}
}
