package flight

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs/progress"
)

func rec(q uint64, results int) *Record {
	return &Record{
		QueryID:   q,
		Algorithm: "e-dsud",
		Threshold: 0.3,
		Start:     time.Now().UnixNano(),
		ElapsedNS: int64(time.Millisecond),
		Outcome:   OutcomeOK,
		Results:   results,
	}
}

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	r.Record(rec(1, 1))
	r.SetDumpDir(t.TempDir())
	if got := r.Snapshot(); got != nil {
		t.Fatalf("nil snapshot = %v", got)
	}
	if path, err := r.Dump("x"); path != "" || err != nil {
		t.Fatalf("nil dump = %q, %v", path, err)
	}
	if r.Size() != 0 || r.Total() != 0 {
		t.Fatal("nil recorder must report zero size/total")
	}
}

func TestRingKeepsNewestInOrder(t *testing.T) {
	r := New(4)
	for q := uint64(1); q <= 10; q++ {
		r.Record(rec(q, int(q)))
	}
	got := r.Snapshot()
	if len(got) != 4 {
		t.Fatalf("retained %d records, want 4", len(got))
	}
	for i, want := range []uint64{7, 8, 9, 10} {
		if got[i].QueryID != want {
			t.Fatalf("snapshot[%d].QueryID = %d, want %d (oldest first)", i, got[i].QueryID, want)
		}
	}
	if r.Total() != 10 {
		t.Fatalf("Total = %d, want 10", r.Total())
	}
}

func TestDefaultSize(t *testing.T) {
	if got := New(0).Size(); got != DefaultSize {
		t.Fatalf("New(0).Size() = %d, want %d", got, DefaultSize)
	}
}

// The record path must not allocate: the recorder is always on, so every
// query pays it — the curve and the transcript path included.
func TestRecordZeroAlloc(t *testing.T) {
	r := New(64)
	rc := rec(42, 3)
	rc.AddSiteCost(0, 5, 2)
	rc.AddSiteCost(1, 4, 0)
	rc.Curve = &progress.Digest{Results: 3, AUCBandwidth: 0.5}
	rc.Transcript = "query-000000000000002a-1.dstr"
	if allocs := testing.AllocsPerRun(1000, func() { r.Record(rc) }); allocs != 0 {
		t.Fatalf("Record allocated %.1f times per call, want 0", allocs)
	}
}

// BenchmarkRecord puts a number on the always-on overhead every query
// pays (cited in docs/OBSERVABILITY.md).
func BenchmarkRecord(b *testing.B) {
	r := New(256)
	rc := rec(42, 3)
	rc.AddSiteCost(0, 5, 2)
	rc.AddSiteCost(1, 4, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(rc)
	}
}

func TestAddSiteCostFoldsOverflow(t *testing.T) {
	var rc Record
	rc.AddSiteCost(MaxSites+3, 7, 1)
	rc.AddSiteCost(MaxSites+9, 2, 0)
	rc.AddSiteCost(-1, 100, 100) // ignored
	if !rc.SitesTruncated {
		t.Fatal("overflow sites must set SitesTruncated")
	}
	if got := rc.PerSite[MaxSites-1]; got.Shipped != 9 || got.Pruned != 1 {
		t.Fatalf("overflow fold = %+v", got)
	}
}

func TestConcurrentRecordAndSnapshot(t *testing.T) {
	r := New(8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Record(rec(uint64(w*1000+i), i))
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		if got := r.Snapshot(); len(got) > 8 {
			t.Errorf("snapshot grew past capacity: %d", len(got))
		}
	}
	wg.Wait()
	got := r.Snapshot()
	if len(got) != 8 {
		t.Fatalf("retained %d records, want 8", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Start > got[i].Start+int64(time.Second) {
			t.Fatalf("snapshot wildly out of order at %d", i)
		}
	}
}

func TestDumpWritesWellFormedJSON(t *testing.T) {
	dir := t.TempDir()
	r := New(4)
	r.SetDumpDir(dir)
	r.Record(rec(6, 0)) // a site session's record: no curve, no transcript
	answered := rec(7, 2)
	answered.Curve = &progress.Digest{Results: 2, AUCBandwidth: 0.25, NumPoints: 1,
		Points: [progress.MaxPoints]progress.Point{{K: 1, NS: 10, Tuples: 3}}}
	answered.Transcript = "tr/query-7.dstr"
	r.Record(answered)
	path, err := r.Dump("audit-violation")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(filepath.Base(path), "audit-violation") {
		t.Fatalf("dump name %q missing reason", path)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Reason   string   `json:"reason"`
		Capacity int      `json:"capacity"`
		Total    uint64   `json:"total"`
		Records  []Record `json:"records"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("dump is not JSON: %v\n%s", err, raw)
	}
	if doc.Reason != "audit-violation" || doc.Capacity != 4 || doc.Total != 2 || len(doc.Records) != 2 {
		t.Fatalf("dump doc = %+v", doc)
	}
	if n := strings.Count(string(raw), `"curve"`); doc.Records[0].Curve != nil || n != 1 {
		t.Fatalf("%d curves dumped for one answered query:\n%s", n, raw)
	}
	got := doc.Records[1]
	if got.QueryID != 7 || got.Outcome != OutcomeOK || got.Transcript != "tr/query-7.dstr" ||
		got.Curve == nil || *got.Curve != *answered.Curve {
		t.Fatalf("dump record = %+v (curve %+v)", got, got.Curve)
	}
}

func TestDumpWithoutDirIsNoop(t *testing.T) {
	r := New(4)
	r.Record(rec(1, 1))
	if path, err := r.Dump("x"); path != "" || err != nil {
		t.Fatalf("dirless dump = %q, %v", path, err)
	}
}

func TestSlowRecordAutoDumps(t *testing.T) {
	dir := t.TempDir()
	r := New(4)
	r.SetDumpDir(dir)
	slow := rec(9, 0)
	slow.Slow = true
	r.Record(slow)
	// The auto-dump is asynchronous; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) > 0 {
			if !strings.Contains(ents[0].Name(), "slow-query") {
				t.Fatalf("auto-dump name %q missing slow-query", ents[0].Name())
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("slow record did not auto-dump")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHandler(t *testing.T) {
	r := New(4)
	r.Record(rec(3, 1))
	h := r.Handler()

	req := httptest.NewRequest("GET", "/debug/flightz", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != 200 {
		t.Fatalf("GET status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type %q", ct)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatalf("flightz is not JSON: %v", err)
	}

	post := httptest.NewRequest("POST", "/debug/flightz", nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, post)
	if w.Code != 405 {
		t.Fatalf("POST status %d, want 405", w.Code)
	}
}

func TestSanitizeReason(t *testing.T) {
	for in, want := range map[string]string{
		"":               "manual",
		"slow query/..%": "slow_query____",
		"ok-reason_1":    "ok-reason_1",
	} {
		if got := sanitizeReason(in); got != want {
			t.Fatalf("sanitizeReason(%q) = %q, want %q", in, got, want)
		}
	}
}
