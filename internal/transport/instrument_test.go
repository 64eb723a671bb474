package transport

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/obs"
)

// okHandler answers every request successfully.
type okHandler struct{}

func (okHandler) Handle(_ context.Context, req *msg.Request) (*msg.Response, error) {
	if req.Kind == msg.KindInit || req.Kind == msg.KindNext {
		return &msg.Response{Exhausted: true}, nil
	}
	return &msg.Response{}, nil
}

// A caller that times each call and hands its outcome to RPCMetrics gets
// per-kind ok/error counts and one latency observation per call, failed
// calls included; kinds without a name are ignored.
func TestInstrumentedClientCounts(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewRPCMetrics(reg, "0")
	c := Local(okHandler{})
	ctx := context.Background()
	call := func(k msg.Kind) error {
		start := time.Now()
		_, err := c.Call(ctx, &msg.Request{Kind: k})
		m.Observe(k, time.Since(start), err)
		return err
	}
	for i := 0; i < 3; i++ {
		if err := call(msg.KindNext); err != nil {
			t.Fatal(err)
		}
	}
	if err := call(msg.KindEvaluate); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := call(msg.KindNext); err == nil {
		t.Fatal("closed client must fail")
	}
	m.Observe(0, time.Millisecond, nil)
	m.Observe(msg.Kind(msg.MaxKind+1), time.Millisecond, nil)

	if got := reg.Counter("dsud_rpc_requests_total", "site", "0", "kind", "next", "outcome", "ok").Value(); got != 3 {
		t.Fatalf("next ok = %d, want 3", got)
	}
	if got := reg.Counter("dsud_rpc_requests_total", "site", "0", "kind", "next", "outcome", "error").Value(); got != 1 {
		t.Fatalf("next error = %d, want 1", got)
	}
	if got := reg.Histogram("dsud_rpc_duration_seconds", nil, "site", "0", "kind", "evaluate").Snapshot().Count; got != 1 {
		t.Fatalf("evaluate latency observations = %d, want 1", got)
	}
	// Every successful or failed call was timed.
	if got := reg.Histogram("dsud_rpc_duration_seconds", nil, "site", "0", "kind", "next").Snapshot().Count; got != 4 {
		t.Fatalf("next latency observations = %d, want 4", got)
	}
	// Resolving the site again yields the same series, not a second count.
	if got := NewRPCMetrics(reg, "0"); got.ok[msg.KindNext] != m.ok[msg.KindNext] {
		t.Fatal("second NewRPCMetrics resolved a different next/ok series")
	}
}

func TestRetryStats(t *testing.T) {
	h := &seqCounter{}
	var mu sync.Mutex
	calls := 0
	dial := func() (Client, error) {
		return &lossyClient{h: h, mu: &mu, callCount: &calls, loseEvery: 3}, nil
	}
	reg := obs.NewRegistry()
	c := Retry(dial, 5).Observe(reg, "0")
	defer c.Close()

	// loseEvery counts transport-level calls, retries included: 9 logical
	// calls become 13 transport calls with losses at 3, 6, 9 and 12, so
	// four calls each need one retry on a redialled connection.
	const n = 9
	for i := 1; i <= n; i++ {
		if _, err := c.Call(context.Background(), &msg.Request{Kind: msg.KindNext}); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	s := c.Stats()
	if s.Calls != n {
		t.Fatalf("calls = %d, want %d", s.Calls, n)
	}
	if s.Retries != 4 || s.Redials != 4 {
		t.Fatalf("retries/redials = %d/%d, want 4/4 (stats %+v)", s.Retries, s.Redials, s)
	}
	if s.Failures != 0 || s.DialErrors != 0 {
		t.Fatalf("unexpected failures in %+v", s)
	}
	// The registry mirror must agree.
	if got := reg.Counter("dsud_retry_retries_total", "site", "0").Value(); got != 4 {
		t.Fatalf("registry retries = %d, want 4", got)
	}
	if got := reg.Counter("dsud_retry_redials_total", "site", "0").Value(); got != 4 {
		t.Fatalf("registry redials = %d, want 4", got)
	}

	// Sub gives phase deltas.
	before := c.Stats()
	if _, err := c.Call(context.Background(), &msg.Request{Kind: msg.KindNext}); err != nil {
		t.Fatal(err)
	}
	d := c.Stats().Sub(before)
	if d.Calls != 1 {
		t.Fatalf("delta calls = %d, want 1", d.Calls)
	}
}

func TestRetryStatsExhaustion(t *testing.T) {
	dial := func() (Client, error) { return nil, errLinkDown }
	c := Retry(dial, 3)
	defer c.Close()
	if _, err := c.Call(context.Background(), &msg.Request{Kind: msg.KindNext}); err == nil {
		t.Fatal("want failure")
	}
	s := c.Stats()
	if s.Failures != 1 {
		t.Fatalf("failures = %d, want 1", s.Failures)
	}
	if s.DialErrors != 3 {
		t.Fatalf("dial errors = %d, want 3", s.DialErrors)
	}
	if s.Retries != 2 {
		t.Fatalf("retries = %d, want 2 (attempts 2 and 3)", s.Retries)
	}
}

// TestMeterExposed checks the registry mirror of the bandwidth meter
// reads live values, including across Reset.
func TestMeterExposed(t *testing.T) {
	reg := obs.NewRegistry()
	m := &Meter{}
	ExposeMeter(reg, m)
	m.Account(&msg.Request{Kind: msg.KindEvaluate}, &msg.Response{})
	m.AddBytes(100)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"dsud_transport_tuples_down_total 1",
		"dsud_transport_messages_total 1",
		"dsud_transport_bytes_total 100",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, sb.String())
		}
	}
	m.Reset()
	sb.Reset()
	reg.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "dsud_transport_bytes_total 0") {
		t.Errorf("Reset must be visible at the next scrape:\n%s", sb.String())
	}
}
