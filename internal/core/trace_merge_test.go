package core

import (
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/obs"
	"repro/internal/round"
)

// startedTrace returns a trace armed as Run would arm it.
func startedTrace() *Trace {
	tr := NewTrace()
	tr.begin(time.Now())
	return tr
}

func siteBatch(tr *Trace, site int, clock int64, spans ...obs.SpanRecord) *obs.SpanBatch {
	return &obs.SpanBatch{
		Ctx:       obs.TraceContext{TraceID: tr.ID(), Parent: tr.context().Parent, Sampled: true},
		SiteID:    site,
		SiteClock: clock,
		Spans:     spans,
	}
}

// A site whose clock runs behind the coordinator produces a negative
// offset; spans must still land inside the RPC window on the
// coordinator's clock.
func TestMergeSiteSpansNegativeClockOffset(t *testing.T) {
	tr := startedTrace()
	sent := time.Now()
	recv := sent.Add(10 * time.Millisecond)
	mid := sent.UnixNano() + recv.Sub(sent).Nanoseconds()/2

	// The site's clock is 5s behind: its "now" at encode time is
	// coordinator-mid minus 5s.
	skew := int64(-5 * time.Second)
	siteClock := mid + skew
	span := obs.SpanRecord{
		ID: 101, Name: "prtree-search", Site: 0,
		Start: siteClock - 1e6, End: siteClock, Tuples: 3,
	}
	tr.MergeSiteSpans(0, siteBatch(tr, 0, siteClock, span), sent, recv)

	sum := tr.Summary()
	if sum.SiteSpans() != 1 {
		t.Fatalf("site spans: %d", sum.SiteSpans())
	}
	off, ok := sum.ClockOffsets[0]
	if !ok || off != time.Duration(skew) {
		t.Fatalf("offset = %v, want %v", off, time.Duration(skew))
	}
	var got obs.SpanRecord
	for _, s := range sum.Timeline {
		if s.Site == 0 {
			got = s
		}
	}
	if got.End != mid {
		t.Fatalf("normalised end %d, want RPC midpoint %d", got.End, mid)
	}
	if got.Start != mid-1e6 {
		t.Fatalf("normalised start %d, want %d", got.Start, mid-1e6)
	}
}

// Batches arriving after the query finished (straggler responses, retry
// replays racing completion) must still merge — and replays must not
// duplicate spans.
func TestMergeSiteSpansAfterFinishAndDedup(t *testing.T) {
	tr := startedTrace()
	tr.finish()

	sent := time.Now()
	recv := sent.Add(time.Millisecond)
	batch := siteBatch(tr, 2, sent.UnixNano(),
		obs.SpanRecord{ID: 7, Name: "site-handle/init", Site: 2, Start: 1, End: 2},
		obs.SpanRecord{ID: 8, Name: "encode-response", Site: 2, Start: 2, End: 3},
	)
	tr.MergeSiteSpans(2, batch, sent, recv)
	tr.MergeSiteSpans(2, batch, sent, recv) // replayed response

	sum := tr.Summary()
	if got := sum.SiteSpans(); got != 2 {
		t.Fatalf("after replay: %d site spans, want 2 (deduplicated)", got)
	}
	// The same span IDs from a different site are distinct spans.
	tr.MergeSiteSpans(3, siteBatch(tr, 3, sent.UnixNano(),
		obs.SpanRecord{ID: 7, Name: "site-handle/init", Site: 3, Start: 1, End: 2},
	), sent, recv)
	if got := tr.Summary().SiteSpans(); got != 3 {
		t.Fatalf("cross-site ID reuse collapsed: %d spans, want 3", got)
	}
}

// A batch from a previous query (stale retry) must be dropped, not
// polluting the current timeline.
func TestMergeSiteSpansStaleTrace(t *testing.T) {
	tr := startedTrace()
	stale := &obs.SpanBatch{
		Ctx:       obs.TraceContext{TraceID: tr.ID() + 1, Sampled: true},
		SiteID:    1,
		SiteClock: time.Now().UnixNano(),
		Spans:     []obs.SpanRecord{{ID: 9, Name: "site-handle/next", Site: 1}},
	}
	now := time.Now()
	tr.MergeSiteSpans(1, stale, now, now)
	sum := tr.Summary()
	if sum.SiteSpans() != 0 {
		t.Fatalf("stale batch merged: %d site spans", sum.SiteSpans())
	}
	if sum.DroppedSpans != 1 {
		t.Fatalf("dropped = %d, want 1", sum.DroppedSpans)
	}
}

// Corrupt blobs are counted, never fatal, and nil blobs are free.
func TestMergeSiteBlob(t *testing.T) {
	tr := startedTrace()
	now := time.Now()
	tr.mergeSiteBlob(0, nil, now, now)
	tr.mergeSiteBlob(0, []byte("not a span batch"), now, now)
	sum := tr.Summary()
	if sum.BadBlobs != 1 {
		t.Fatalf("bad blobs = %d, want 1", sum.BadBlobs)
	}

	blob := codec.AppendSpanBatch(nil, siteBatch(tr, 0, now.UnixNano(),
		obs.SpanRecord{ID: 21, Name: "replica-apply", Site: 0, Start: 1, End: 2}))
	tr.mergeSiteBlob(0, blob, now, now)
	if got := tr.Summary().SiteSpans(); got != 1 {
		t.Fatalf("valid blob not merged: %d site spans", got)
	}
}

// The timeline cap converts overflow into DroppedSpans, bounding memory.
func TestMergeSiteSpansTimelineCap(t *testing.T) {
	tr := startedTrace()
	now := time.Now()
	spans := make([]obs.SpanRecord, maxTimelineSpans+50)
	for i := range spans {
		spans[i] = obs.SpanRecord{ID: uint64(i + 1), Name: "x", Site: 0}
	}
	tr.MergeSiteSpans(0, siteBatch(tr, 0, now.UnixNano(), spans...), now, now)
	sum := tr.Summary()
	if sum.SiteSpans() != maxTimelineSpans {
		t.Fatalf("timeline holds %d site spans, want cap %d", sum.SiteSpans(), maxTimelineSpans)
	}
	if sum.DroppedSpans != 50 {
		t.Fatalf("dropped = %d, want 50", sum.DroppedSpans)
	}
}

// An unsampled query must not pay for tracing: the context fast path and
// the inert step path allocate nothing.
func TestUnsampledZeroAllocations(t *testing.T) {
	var tr *Trace // nil trace = sampling off
	if allocs := testing.AllocsPerRun(100, func() {
		if tc := tr.context(); tc.Traced() {
			t.Fatal("nil trace sampled")
		}
		tr.step(round.Step{Kind: round.StepBegin, Phase: PhaseToServer})
		tr.step(round.Step{Kind: round.StepEnd, Phase: PhaseToServer})
	}); allocs != 0 {
		t.Fatalf("unsampled span path allocates %v per run", allocs)
	}
}

// Reusing one Trace across queries must fully reset the distributed
// state: new trace ID, empty timeline, cleared offsets and counters.
func TestTraceReuseResets(t *testing.T) {
	tr := startedTrace()
	first := tr.ID()
	now := time.Now()
	tr.MergeSiteSpans(0, siteBatch(tr, 0, now.UnixNano(),
		obs.SpanRecord{ID: 31, Name: "site-handle/init", Site: 0, Start: 1, End: 2}), now, now)
	tr.mergeSiteBlob(0, []byte("junk"), now, now)
	tr.finish()

	tr.begin(time.Now())
	if tr.ID() == first {
		t.Fatal("trace ID not refreshed across queries")
	}
	sum := tr.Summary()
	if sum.SiteSpans() != 0 || sum.BadBlobs != 0 || sum.DroppedSpans != 0 || len(sum.ClockOffsets) != 0 {
		t.Fatalf("stale state survived reuse: %+v", sum)
	}
}
