package site

import (
	"bytes"
	"context"
	"log/slog"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/obs"
)

// A Timed Init's reply carries the site's handling time as ServiceNS.
// (The name predates ServiceNS, which replaced piggybacked site spans.)
func TestSampledInitPiggybacksSpans(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	eng := New(4, randomPart(r, 300, 3), 3, 0)
	resp, err := eng.Handle(context.Background(), &msg.Request{Kind: msg.KindInit, Session: 7,
		Query: msg.Query{Threshold: 0.3}, Timed: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ServiceNS <= 0 {
		t.Fatalf("timed Init reply carries ServiceNS %d, want > 0", resp.ServiceNS)
	}
}

// An untimed request's reply carries no ServiceNS, also when it follows a
// Timed request of the same session.
func TestUnsampledRequestHasNoBlob(t *testing.T) {
	r := rand.New(rand.NewSource(82))
	eng := New(4, randomPart(r, 300, 3), 3, 0)
	ctx := context.Background()
	if _, err := eng.Handle(ctx, &msg.Request{Kind: msg.KindInit, Session: 7,
		Query: msg.Query{Threshold: 0.3}, Timed: true}); err != nil {
		t.Fatal(err)
	}
	resp, err := eng.Handle(ctx, &msg.Request{Kind: msg.KindNext, Session: 7})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ServiceNS != 0 {
		t.Fatalf("untimed Next reply carries ServiceNS %d", resp.ServiceNS)
	}
}

// The untimed, uninstrumented, unlogged request path must allocate
// exactly what the handlers themselves allocate, and so must a Timed one:
// stamping ServiceNS reads two clocks and allocates nothing.
func TestUnsampledHandleZeroTracingAllocations(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	eng := New(0, randomPart(r, 200, 2), 2, 0)
	initSite(t, eng, 0.3, nil)

	ctx := context.Background()
	req := &msg.Request{Kind: msg.KindEndQuery, Session: 1} // no such session: a no-op
	base := testing.AllocsPerRun(200, func() {
		if _, err := eng.dispatch(req); err != nil {
			t.Fatal(err)
		}
	})
	for _, timed := range []bool{false, true} {
		req.Timed = timed
		got := testing.AllocsPerRun(200, func() {
			if _, err := eng.Handle(ctx, req); err != nil {
				t.Fatal(err)
			}
		})
		if got > base {
			t.Fatalf("Handle (timed %v) allocates %v per request, raw dispatch %v — timing must not allocate", timed, got, base)
		}
	}
}

// The structured request log: Debug per request, Error on failure, Warn
// past the slow threshold, all correlated by query_id: the session, as
// the coordinator renders it.
func TestRequestLogging(t *testing.T) {
	r := rand.New(rand.NewSource(84))
	eng := New(0, randomPart(r, 50, 2), 2, 0)

	var buf bytes.Buffer
	logger, err := obs.NewLogger(&buf, "json", slog.LevelDebug)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetLogger(logger, time.Nanosecond) // everything is "slow"

	if _, err := eng.Handle(context.Background(), &msg.Request{Kind: msg.KindInit, Session: 777,
		Query: msg.Query{Threshold: 0.3}}); err != nil {
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
	if _, err := eng.Handle(context.Background(), &msg.Request{Kind: msg.KindNext, Session: 777}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"level":"DEBUG"`) {
		t.Fatalf("no debug record: %q", buf.String())
	}

	buf.Reset()
	if _, err := eng.Handle(context.Background(), &msg.Request{Kind: msg.Kind(99)}); err == nil {
		t.Fatal("unknown kind must fail")
	}
	if !strings.Contains(buf.String(), `"level":"ERROR"`) {
		t.Fatalf("failure not logged at Error: %q", buf.String())
	}
}
