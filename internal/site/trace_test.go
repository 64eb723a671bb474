package site

import (
	"bytes"
	"context"
	"log/slog"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/obs"
	"repro/internal/transport"
)

func tracedReq(kind transport.Kind) *transport.Request {
	return &transport.Request{
		Kind:  kind,
		Query: transport.Query{Threshold: 0.3},
		Trace: obs.TraceContext{TraceID: 777, Parent: 888, Sampled: true},
	}
}

// A sampled Init must come back with a decodable span batch: the RPC
// root span, the PR-tree search phase, and the response-encoding span —
// each attributed to this site with a monotone interval and the root
// carrying the bandwidth ledger.
func TestSampledInitPiggybacksSpans(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	eng := New(4, randomPart(r, 300, 3), 3, 0)

	resp, err := eng.Handle(context.Background(), tracedReq(transport.KindInit))
	if err != nil {
		t.Fatal(err)
	}
	if resp.TraceBlob == nil {
		t.Fatal("sampled request returned no span blob")
	}
	batch, err := codec.DecodeSpanBatch(resp.TraceBlob)
	if err != nil {
		t.Fatal(err)
	}
	if batch.SiteID != 4 || batch.Ctx.TraceID != 777 {
		t.Fatalf("batch header %+v", batch)
	}
	if batch.SiteClock == 0 {
		t.Fatal("batch carries no site clock")
	}

	byName := map[string]obs.SpanRecord{}
	for _, s := range batch.Spans {
		if s.Site != 4 {
			t.Fatalf("span %q claims site %d", s.Name, s.Site)
		}
		if s.End < s.Start {
			t.Fatalf("span %q runs backwards", s.Name)
		}
		byName[s.Name] = s
	}
	root, ok := byName["site-handle/init"]
	if !ok {
		t.Fatalf("no root span in %v", byName)
	}
	if root.Parent != 888 {
		t.Fatalf("root span parent %d, want the coordinator's 888", root.Parent)
	}
	if root.Tuples != 1 || root.Bytes != codec.TupleWireSize(3) {
		t.Fatalf("root ledger tuples=%d bytes=%d", root.Tuples, root.Bytes)
	}
	search, ok := byName["prtree-search"]
	if !ok {
		t.Fatal("no prtree-search span")
	}
	if search.Parent != root.ID {
		t.Fatalf("prtree-search hangs off %d, want root %d", search.Parent, root.ID)
	}
	if search.Tuples == 0 {
		t.Fatal("prtree-search recorded no skyline tuples")
	}
	enc, ok := byName["encode-response"]
	if !ok {
		t.Fatal("no encode-response span")
	}
	if enc.Bytes == 0 {
		t.Fatal("encode-response recorded no bytes")
	}
}

// An unsampled request must not produce a blob, and the collector state
// must not leak across requests.
func TestUnsampledRequestHasNoBlob(t *testing.T) {
	r := rand.New(rand.NewSource(82))
	eng := New(0, randomPart(r, 100, 2), 2, 0)

	// Sampled first, so leakage would be visible on the next request.
	if resp, err := eng.Handle(context.Background(), tracedReq(transport.KindInit)); err != nil || resp.TraceBlob == nil {
		t.Fatalf("sampled warm-up: %v %v", resp, err)
	}
	resp, err := eng.Handle(context.Background(), &transport.Request{Kind: transport.KindNext})
	if err != nil {
		t.Fatal(err)
	}
	if resp.TraceBlob != nil {
		t.Fatal("unsampled request grew a span blob")
	}
}

// The unsampled, uninstrumented, unlogged request path must allocate
// exactly what the handlers themselves allocate — tracing adds zero.
func TestUnsampledHandleZeroTracingAllocations(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	eng := New(0, randomPart(r, 200, 2), 2, 0)
	initSite(t, eng, 0.3, nil)

	ctx := context.Background()
	req := &transport.Request{Kind: transport.KindEndQuery, Session: 1} // no such session: a no-op
	base := testing.AllocsPerRun(200, func() {
		if _, err := eng.dispatch(req); err != nil {
			t.Fatal(err)
		}
	})
	got := testing.AllocsPerRun(200, func() {
		if _, err := eng.Handle(ctx, req); err != nil {
			t.Fatal(err)
		}
	})
	if got > base {
		t.Fatalf("Handle allocates %v per request, raw dispatch %v — tracing must be free when off", got, base)
	}
}

// The structured request log: Debug per request, Error on failure, Warn
// past the slow threshold, all correlated by query_id.
func TestRequestLogging(t *testing.T) {
	r := rand.New(rand.NewSource(84))
	eng := New(0, randomPart(r, 50, 2), 2, 0)

	var buf bytes.Buffer
	logger, err := obs.NewLogger(&buf, "json", slog.LevelDebug)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetLogger(logger, time.Nanosecond) // everything is "slow"

	if _, err := eng.Handle(context.Background(), tracedReq(transport.KindInit)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"msg":"slow request"`) {
		t.Fatalf("no slow-request record in %q", out)
	}
	if !strings.Contains(out, obs.QueryID(777)) {
		t.Fatalf("log not correlated by query_id: %q", out)
	}

	buf.Reset()
	eng.SetLogger(logger, 0) // slow log off: plain Debug records
	if _, err := eng.Handle(context.Background(), &transport.Request{Kind: transport.KindNext}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"level":"DEBUG"`) {
		t.Fatalf("no debug record: %q", buf.String())
	}

	buf.Reset()
	if _, err := eng.Handle(context.Background(), &transport.Request{Kind: transport.Kind(99)}); err == nil {
		t.Fatal("unknown kind must fail")
	}
	if !strings.Contains(buf.String(), `"level":"ERROR"`) {
		t.Fatalf("failure not logged at Error: %q", buf.String())
	}
}
