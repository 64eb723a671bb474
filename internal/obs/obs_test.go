package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("dsud_test_total", "kind", "init")
	c.Inc()
	c.Add(4)
	c.Add(-3) // counters are monotone; negative adds are dropped
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same name+labels unify to one series.
	if r.Counter("dsud_test_total", "kind", "init") != c {
		t.Fatal("identical series must unify")
	}
	// Label order must not matter.
	a := r.Counter("dsud_multi_total", "a", "1", "b", "2")
	b := r.Counter("dsud_multi_total", "b", "2", "a", "1")
	if a != b {
		t.Fatal("label order must not split series")
	}

	g := r.Gauge("dsud_test_level")
	g.Set(2.5)
	g.Add(-0.5)
	if got := g.Value(); got != 2.0 {
		t.Fatalf("gauge = %v, want 2", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("dsud_test_seconds", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	wantCum := []uint64{1, 3, 4}
	for i, w := range wantCum {
		if s.Counts[i] != w {
			t.Fatalf("bucket[%d] = %d, want %d (snapshot %+v)", i, s.Counts[i], w, s)
		}
	}
	if s.Counts[len(s.Counts)-1] != 5 {
		t.Fatalf("+Inf bucket = %d, want 5", s.Counts[len(s.Counts)-1])
	}
	if got, want := s.Sum, 0.005+0.05+0.05+0.5+5; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total")
	g := r.Gauge("x")
	h := r.Histogram("x_seconds", nil)
	// All of these must be no-ops, not panics.
	c.Inc()
	c.Add(7)
	g.Set(1)
	g.Add(1)
	h.Observe(0.1)
	r.GaugeFunc("y", func() float64 { return 1 })
	r.CounterFunc("z_total", func() float64 { return 1 })
	r.SetHelp("x_total", "help")
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Fatalf("nil registry exposed %q", sb.String())
	}
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 {
		t.Fatal("nil instruments must read as zero")
	}
}

func TestKindCollisionDetaches(t *testing.T) {
	r := NewRegistry()
	r.Counter("dsud_clash").Inc()
	g := r.Gauge("dsud_clash") // wrong kind: returns a detached gauge
	g.Set(9)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Contains(out, "9") {
		t.Fatalf("detached instrument leaked into exposition:\n%s", out)
	}
	if !strings.Contains(out, "dsud_clash 1") {
		t.Fatalf("original counter missing:\n%s", out)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Describe(
		"dsud_requests_total", "Requests by kind.",
		"dsud_sessions", "Live sessions.",
	)
	r.Counter("dsud_requests_total", "kind", "init").Add(3)
	r.Counter("dsud_requests_total", "kind", "next").Add(8)
	r.Gauge("dsud_sessions").Set(2)
	r.GaugeFunc("dsud_tuples", func() float64 { return 42 })
	h := r.Histogram("dsud_rpc_seconds", []float64{0.001, 0.01}, "kind", "evaluate")
	h.Observe(0.0005)
	h.Observe(0.5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP dsud_requests_total Requests by kind.",
		"# TYPE dsud_requests_total counter",
		`dsud_requests_total{kind="init"} 3`,
		`dsud_requests_total{kind="next"} 8`,
		"# TYPE dsud_sessions gauge",
		"dsud_sessions 2",
		"# TYPE dsud_tuples gauge",
		"dsud_tuples 42",
		"# TYPE dsud_rpc_seconds histogram",
		`dsud_rpc_seconds_bucket{kind="evaluate",le="0.001"} 1`,
		`dsud_rpc_seconds_bucket{kind="evaluate",le="0.01"} 1`,
		`dsud_rpc_seconds_bucket{kind="evaluate",le="+Inf"} 2`,
		`dsud_rpc_seconds_sum{kind="evaluate"} 0.5005`,
		`dsud_rpc_seconds_count{kind="evaluate"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families must be emitted sorted and TYPE must precede samples.
	if strings.Index(out, "# TYPE dsud_requests_total") > strings.Index(out, `dsud_requests_total{kind="init"}`) {
		t.Error("TYPE line must precede samples")
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("dsud_esc_total", "path", `a"b\c`+"\n").Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `path="a\"b\\c\n"`) {
		t.Fatalf("label not escaped: %s", sb.String())
	}
}

func TestJSONDump(t *testing.T) {
	r := NewRegistry()
	r.Counter("dsud_requests_total", "kind", "init").Add(3)
	r.Gauge("dsud_sessions").Set(1.5)
	r.Histogram("dsud_rpc_seconds", []float64{0.1}).Observe(0.05)

	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(sb.String()), &got); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, sb.String())
	}
	if string(got[`dsud_requests_total{kind="init"}`]) != "3" {
		t.Fatalf("counter dump = %s", got[`dsud_requests_total{kind="init"}`])
	}
	var hist struct {
		Count   uint64            `json:"count"`
		Buckets map[string]uint64 `json:"buckets"`
	}
	if err := json.Unmarshal(got["dsud_rpc_seconds"], &hist); err != nil {
		t.Fatal(err)
	}
	if hist.Count != 1 || hist.Buckets["0.1"] != 1 {
		t.Fatalf("histogram dump = %+v", hist)
	}
}

func TestHTTPHandlers(t *testing.T) {
	r := NewRegistry()
	r.Counter("dsud_up_total").Inc()
	mux := DebugMux(r, nil)

	for _, tc := range []struct{ path, wantBody, wantType string }{
		{"/metrics", "dsud_up_total 1", "text/plain; version=0.0.4; charset=utf-8"},
		{"/vars", `"dsud_up_total": 1`, "application/json"},
		{"/healthz", `{"status":"ok"}`, "application/json"},
	} {
		req := httptest.NewRequest("GET", tc.path, nil)
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Errorf("%s: status %d", tc.path, rec.Code)
		}
		if !strings.Contains(rec.Body.String(), tc.wantBody) {
			t.Errorf("%s: body %q missing %q", tc.path, rec.Body.String(), tc.wantBody)
		}
		if ct := rec.Header().Get("Content-Type"); ct != tc.wantType {
			t.Errorf("%s: content-type %q, want %q", tc.path, ct, tc.wantType)
		}
		// The debug surface is read-only: mutating methods get 405.
		for _, method := range []string{"POST", "PUT", "DELETE"} {
			req := httptest.NewRequest(method, tc.path, nil)
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, req)
			if rec.Code != http.StatusMethodNotAllowed {
				t.Errorf("%s %s: status %d, want 405", method, tc.path, rec.Code)
			}
			if allow := rec.Header().Get("Allow"); !strings.Contains(allow, "GET") {
				t.Errorf("%s %s: Allow header %q", method, tc.path, allow)
			}
		}
	}
	// pprof index must answer (the full profile suite is stdlib-tested).
	req := httptest.NewRequest("GET", "/debug/pprof/", nil)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Errorf("/debug/pprof/: status %d", rec.Code)
	}
}

// Extra handlers must mount verbatim — at their exact path, untouched by
// the mux's own method policy — and must not displace the built-ins.
func TestDebugMuxExtraHandlers(t *testing.T) {
	r := NewRegistry()
	calls := 0
	mux := DebugMux(r, map[string]http.Handler{
		"/debug/extra": http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			calls++
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, `{"id":7}`)
		}),
		"/debug/flightz": http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if req.Method == http.MethodPost {
				http.Error(w, "GET only", http.StatusMethodNotAllowed)
				return
			}
			io.WriteString(w, `{}`)
		}),
	})

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/extra", nil))
	if rec.Code != 200 || rec.Body.String() != `{"id":7}` || calls != 1 {
		t.Fatalf("/debug/extra: code %d body %q calls %d", rec.Code, rec.Body.String(), calls)
	}

	// The extra handler's own method policy applies, not the mux's.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("POST", "/debug/flightz", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /debug/flightz: code %d, want 405", rec.Code)
	}

	// Built-ins still answer.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("/healthz alongside extras: code %d", rec.Code)
	}
}

func TestGaugeFuncReadsLive(t *testing.T) {
	r := NewRegistry()
	level := 1.0
	r.GaugeFunc("dsud_level", func() float64 { return level })
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "dsud_level 1") {
		t.Fatalf("first read: %s", sb.String())
	}
	level = 7
	sb.Reset()
	r.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "dsud_level 7") {
		t.Fatalf("gauge func must be read at exposition time: %s", sb.String())
	}
}
