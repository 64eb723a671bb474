package transcript

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/transport"
	"repro/internal/uncertain"
)

func testHeader(sites int) *codec.TranscriptHeader {
	return &codec.TranscriptHeader{
		QueryID:        0xABCD,
		Session:        7,
		Algorithm:      3,
		Threshold:      0.3,
		StartUnixNano:  1700000000,
		Sites:          int64(sites),
		Dimensionality: 2,
	}
}

// record one full fake exchange per entry: (site, kind, feedID).
type fakeCall struct {
	site int
	kind transport.Kind
	feed uint64
}

func recordFakes(t *testing.T, rec *Recorder, calls []fakeCall) {
	t.Helper()
	for _, c := range calls {
		req := &transport.Request{Kind: c.kind}
		if c.kind == transport.KindEvaluate {
			req.Feed.Tuple.ID = uncertain.TupleID(c.feed)
		}
		resp := &transport.Response{Pruned: 1}
		rec.RecordCall(c.site, req, resp, 100)
	}
}

func buildTranscript(t *testing.T, calls []fakeCall, sites int) *Transcript {
	t.Helper()
	rec := NewRecorder(testHeader(sites), time.Now())
	recordFakes(t, rec, calls)
	sum := &codec.TranscriptSummary{Results: 1, Bytes: int64(100 * len(calls))}
	tr, err := Read(bytes.NewReader(rec.Bytes(sum)))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRecorderRoundTrip(t *testing.T) {
	calls := []fakeCall{
		{0, transport.KindInit, 0},
		{1, transport.KindInit, 0},
		{0, transport.KindEvaluate, 42},
		{1, transport.KindEvaluate, 42},
		{0, transport.KindNext, 0},
		{0, transport.KindEndQuery, 0},
		{1, transport.KindEndQuery, 0},
	}
	tr := buildTranscript(t, calls, 2)
	if len(tr.Messages) != 2*len(calls) {
		t.Fatalf("recorded %d messages, want %d", len(tr.Messages), 2*len(calls))
	}
	if tr.Summary == nil || tr.Summary.Results != 1 {
		t.Fatal("summary frame missing or wrong")
	}
	exs, err := tr.BySite()
	if err != nil {
		t.Fatal(err)
	}
	if len(exs) != 2 || len(exs[0]) != 4 || len(exs[1]) != 3 {
		t.Fatalf("BySite shape wrong: %d sites", len(exs))
	}
	// Per-site ordinals are dense and exchanges keep kind + payloads.
	for site, list := range exs {
		for i, ex := range list {
			if ex.Ordinal != int64(i) {
				t.Fatalf("site %d exchange %d has ordinal %d", site, i, ex.Ordinal)
			}
			if len(ex.Request.Payload) == 0 || len(ex.Response.Payload) == 0 {
				t.Fatalf("site %d exchange %d missing payload", site, i)
			}
		}
	}
	// The Evaluate request decodes back to the recorded feedback tuple.
	var req transport.Request
	if err := transport.DecodeRequest(exs[0][1].Request.Payload, &req); err != nil {
		t.Fatal(err)
	}
	if req.Feed.Tuple.ID != 42 {
		t.Fatalf("decoded feedback tuple %d, want 42", req.Feed.Tuple.ID)
	}
	if exs[0][1].Response.WireBytes != 100 {
		t.Fatalf("wire bytes %d, want 100", exs[0][1].Response.WireBytes)
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var rec *Recorder
	rec.RecordCall(0, &transport.Request{}, &transport.Response{}, 1)
	if rec.Messages() != 0 {
		t.Fatal("nil recorder must be inert")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		rec.RecordCall(0, nil, nil, 0)
	}); allocs != 0 {
		t.Fatalf("nil recorder RecordCall allocates %v/op", allocs)
	}
}

// The unsampled hot path: one ShouldRecord call per query, zero
// allocations whether or not a sink is attached.
func TestShouldRecordZeroAlloc(t *testing.T) {
	var nilSink *Sink
	if allocs := testing.AllocsPerRun(1000, func() {
		if nilSink.ShouldRecord(false) {
			t.Fatal("nil sink recorded")
		}
	}); allocs != 0 {
		t.Fatalf("nil-sink ShouldRecord allocates %v/op", allocs)
	}
	s := NewSink("", 0.5, nil)
	if allocs := testing.AllocsPerRun(1000, func() {
		s.ShouldRecord(false)
	}); allocs != 0 {
		t.Fatalf("sampling ShouldRecord allocates %v/op", allocs)
	}
}

func TestShouldRecordSampling(t *testing.T) {
	var nilSink *Sink
	if nilSink.ShouldRecord(true) {
		t.Fatal("nil sink must never record, even forced")
	}
	s0 := NewSink("", 0, nil)
	if s0.ShouldRecord(false) {
		t.Fatal("sample=0 recorded without force")
	}
	if !s0.ShouldRecord(true) {
		t.Fatal("force must override sample=0")
	}
	s1 := NewSink("", 1, nil)
	for i := 0; i < 100; i++ {
		if !s1.ShouldRecord(false) {
			t.Fatal("sample=1 skipped a query")
		}
	}
	half := NewSink("", 0.5, nil)
	hits := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		if half.ShouldRecord(false) {
			hits++
		}
	}
	if hits < trials*4/10 || hits > trials*6/10 {
		t.Fatalf("sample=0.5 hit %d/%d", hits, trials)
	}
}

func TestSinkFinishWritesFile(t *testing.T) {
	dir := t.TempDir()
	log := NewLog(4)
	s := NewSink(dir, 0, log)
	h := testHeader(1)
	rec := NewRecorder(h, time.Now())
	recordFakes(t, rec, []fakeCall{{0, transport.KindInit, 0}})
	sum := &codec.TranscriptSummary{Results: 2, ElapsedNS: 5}
	path, err := s.Finish(rec, h, sum, nil)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(path) != dir {
		t.Fatalf("wrote outside the sink dir: %s", path)
	}
	tr, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Header.QueryID != h.QueryID || tr.Summary == nil || tr.Summary.Results != 2 {
		t.Fatal("file round-trip lost header or summary")
	}
	entries := log.Snapshot()
	if len(entries) != 1 || entries[0].Path != path || entries[0].Results != 2 {
		t.Fatalf("log entry wrong: %+v", entries)
	}
}

func TestLogRing(t *testing.T) {
	l := NewLog(3)
	for i := 1; i <= 5; i++ {
		l.Record(&Summary{QueryID: uint64(i)})
	}
	if l.Total() != 5 || l.Size() != 3 {
		t.Fatalf("total=%d size=%d", l.Total(), l.Size())
	}
	got := l.Snapshot()
	if len(got) != 3 || got[0].QueryID != 3 || got[2].QueryID != 5 {
		t.Fatalf("ring order wrong: %+v", got)
	}
}

func TestLogHandler(t *testing.T) {
	l := NewLog(4)
	l.Record(&Summary{QueryID: 9, Algorithm: 3, Results: 4, Path: "/tmp/q.dstr"})
	h := l.Handler()

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/transcriptz", nil))
	if rr.Code != 200 || !strings.Contains(rr.Body.String(), "\"transcripts\"") {
		t.Fatalf("JSON response: %d %s", rr.Code, rr.Body.String())
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/transcriptz?format=text", nil))
	body := rr.Body.String()
	if !strings.Contains(body, "e-dsud") || !strings.Contains(body, "q.dstr") {
		t.Fatalf("text response missing fields:\n%s", body)
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/transcriptz", nil))
	if rr.Code != 405 {
		t.Fatalf("POST allowed: %d", rr.Code)
	}
}

func TestCompareSelfEqual(t *testing.T) {
	calls := []fakeCall{
		{0, transport.KindInit, 0},
		{0, transport.KindEvaluate, 10},
		{0, transport.KindEvaluate, 11},
		{0, transport.KindEndQuery, 0},
	}
	tr := buildTranscript(t, calls, 1)
	d, err := Compare(tr, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Equal || len(d.Lines) != 0 {
		t.Fatalf("self-compare unequal: %v", d.Lines)
	}
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "agree") {
		t.Fatalf("equal diff prints %q", buf.String())
	}
}

// Two builds that disagree must have the divergence localized to the
// first round where their feedback choices differ.
func TestCompareLocalizesFeedbackDivergence(t *testing.T) {
	mk := func(feeds []uint64) *Transcript {
		calls := []fakeCall{{0, transport.KindInit, 0}}
		for _, f := range feeds {
			calls = append(calls, fakeCall{0, transport.KindEvaluate, f})
		}
		calls = append(calls, fakeCall{0, transport.KindEndQuery, 0})
		return buildTranscript(t, calls, 1)
	}
	a := mk([]uint64{10, 11, 12, 13})
	b := mk([]uint64{10, 11, 99, 13})
	d, err := Compare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d.Equal {
		t.Fatal("divergent transcripts compared equal")
	}
	if d.DivergedSite != 0 || d.DivergedRound != 2 {
		t.Fatalf("divergence localized to site %d round %d, want site 0 round 2", d.DivergedSite, d.DivergedRound)
	}
	joined := strings.Join(d.Lines, "\n")
	if !strings.Contains(joined, "round 2") || !strings.Contains(joined, "99") {
		t.Fatalf("diff lines don't name the divergence:\n%s", joined)
	}
}

func TestCompareHeaderAndPhaseDifferences(t *testing.T) {
	a := buildTranscript(t, []fakeCall{{0, transport.KindInit, 0}}, 1)
	b := buildTranscript(t, []fakeCall{{0, transport.KindInit, 0}, {0, transport.KindNext, 0}}, 1)
	b.Header.Threshold = 0.7
	d, err := Compare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d.Equal {
		t.Fatal("different transcripts compared equal")
	}
	joined := strings.Join(d.Lines, "\n")
	if !strings.Contains(joined, "threshold") {
		t.Fatalf("threshold change not reported:\n%s", joined)
	}
	if d.DivergedRound != -1 {
		t.Fatalf("no feedback divergence expected, got round %d", d.DivergedRound)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a transcript"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing.dstr")); err == nil {
		t.Fatal("missing file accepted")
	}
	// A transcript with no header frame must be rejected.
	var buf []byte
	buf = codec.AppendTranscriptPreamble(buf)
	if _, err := Read(bytes.NewReader(buf)); err == nil {
		t.Fatal("headerless transcript accepted")
	}
}

func TestSinkCounters(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sub") // Finish must MkdirAll
	s := NewSink(dir, 0, nil)
	h := testHeader(1)
	rec := NewRecorder(h, time.Now())
	recordFakes(t, rec, []fakeCall{{0, transport.KindInit, 0}})
	if _, err := s.Finish(rec, h, nil, nil); err != nil {
		t.Fatal(err)
	}
	files, _ := os.ReadDir(dir)
	if len(files) != 1 {
		t.Fatalf("sink wrote %d files", len(files))
	}
}
