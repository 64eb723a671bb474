package transport

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// okHandler answers every request successfully.
type okHandler struct{}

func (okHandler) Handle(_ context.Context, req *Request) (*Response, error) {
	if req.Kind == KindInit || req.Kind == KindNext {
		return &Response{Exhausted: true}, nil
	}
	return &Response{}, nil
}

func TestInstrumentedClientCounts(t *testing.T) {
	reg := obs.NewRegistry()
	c := Instrumented(Local(okHandler{}), reg, "0")
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := c.Call(ctx, &Request{Kind: KindNext}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Call(ctx, &Request{Kind: KindEvaluate}); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := c.Call(ctx, &Request{Kind: KindNext}); err == nil {
		t.Fatal("closed client must fail")
	}

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
}

func TestInstrumentedNilRegistryPassesThrough(t *testing.T) {
	inner := Local(okHandler{})
	if c := Instrumented(inner, nil, "0"); c != inner {
		t.Fatal("nil registry must return the inner client unchanged")
	}
}

// Every Kind that has a name must be measured: a kind added to the enum
// without MaxKind following it would pass through Instrumented uncounted
// (KindStatus did, so dsud_rpc_requests_total{kind="status"} never existed).
func TestInstrumentedCoversEveryKind(t *testing.T) {
	reg := obs.NewRegistry()
	c := Instrumented(Local(okHandler{}), reg, "0")
	defer c.Close()
	named := 0
	// Walk past MaxKind so a named kind beyond the bound fails here.
	for k := Kind(1); int(k) <= MaxKind+8; k++ {
		name := k.String()
		if strings.HasPrefix(name, "Kind(") {
			continue
		}
		named++
		if _, err := c.Call(context.Background(), &Request{Kind: k}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := reg.Counter("dsud_rpc_requests_total", "site", "0", "kind", name, "outcome", "ok").Value(); got != 1 {
			t.Errorf("kind %s: ok counter = %d after one call, want 1", name, got)
		}
	}
	if named != MaxKind {
		t.Errorf("%d named kinds, MaxKind = %d", named, MaxKind)
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
		if _, err := c.Call(context.Background(), &Request{Kind: KindNext}); err != nil {
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
	if _, err := c.Call(context.Background(), &Request{Kind: KindNext}); err != nil {
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
	if _, err := c.Call(context.Background(), &Request{Kind: KindNext}); err == nil {
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
	m.Account(&Request{Kind: KindEvaluate}, &Response{})
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
