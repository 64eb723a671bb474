package transcript

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/msg"
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
	kind msg.Kind
	feed uint64
}

func recordFakes(t *testing.T, rec *Recorder, calls []fakeCall) {
	t.Helper()
	for _, c := range calls {
		req := &msg.Request{Kind: c.kind}
		if c.kind == msg.KindEvaluate {
			req.Feed.Tuple.ID = uncertain.TupleID(c.feed)
		}
		resp := &msg.Response{Pruned: 1}
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
		{0, msg.KindInit, 0},
		{1, msg.KindInit, 0},
		{0, msg.KindEvaluate, 42},
		{1, msg.KindEvaluate, 42},
		{0, msg.KindNext, 0},
		{0, msg.KindEndQuery, 0},
		{1, msg.KindEndQuery, 0},
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
	var req msg.Request
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
	rec.RecordCall(0, &msg.Request{}, &msg.Response{}, 1)
	if allocs := testing.AllocsPerRun(100, func() {
		rec.RecordCall(0, nil, nil, 0)
	}); allocs != 0 {
		t.Fatalf("nil recorder RecordCall allocates %v/op", allocs)
	}
}

func TestSinkFinishWritesFile(t *testing.T) {
	dir := t.TempDir()
	s := NewSink(dir)
	h := testHeader(1)
	rec := NewRecorder(h, time.Now())
	recordFakes(t, rec, []fakeCall{{0, msg.KindInit, 0}})
	sum := &codec.TranscriptSummary{Results: 2, ElapsedNS: 5}
	path, err := s.Finish(rec, h, sum)
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
}

func TestCompareSelfEqual(t *testing.T) {
	calls := []fakeCall{
		{0, msg.KindInit, 0},
		{0, msg.KindEvaluate, 10},
		{0, msg.KindEvaluate, 11},
		{0, msg.KindEndQuery, 0},
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
		calls := []fakeCall{{0, msg.KindInit, 0}}
		for _, f := range feeds {
			calls = append(calls, fakeCall{0, msg.KindEvaluate, f})
		}
		calls = append(calls, fakeCall{0, msg.KindEndQuery, 0})
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
	a := buildTranscript(t, []fakeCall{{0, msg.KindInit, 0}}, 1)
	b := buildTranscript(t, []fakeCall{{0, msg.KindInit, 0}, {0, msg.KindNext, 0}}, 1)
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
	s := NewSink(dir)
	h := testHeader(1)
	rec := NewRecorder(h, time.Now())
	recordFakes(t, rec, []fakeCall{{0, msg.KindInit, 0}})
	if _, err := s.Finish(rec, h, nil); err != nil {
		t.Fatal(err)
	}
	files, _ := os.ReadDir(dir)
	if len(files) != 1 {
		t.Fatalf("sink wrote %d files", len(files))
	}
}
