package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A coordinator serving /debug/flightz feeds the DLVRD column and the
// progressiveness summary; one without it (or an unreachable one) is a
// soft miss — nil dump, every accessor degrades to "-".
func TestFetchFlightzSoftMiss(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	defer srv.Close()
	tp := &top{client: srv.Client(), cluster: srv.URL}
	if fz := tp.fetchFlightz(); fz != nil {
		t.Fatalf("404 /debug/flightz must be a soft miss, got %+v", fz)
	}
	tp.cluster = "http://127.0.0.1:1" // nothing listens here
	if fz := tp.fetchFlightz(); fz != nil {
		t.Fatalf("unreachable /debug/flightz must be a soft miss, got %+v", fz)
	}
	var nilDump *flightzDump
	if got := nilDump.delivered(0); got != "-" {
		t.Errorf("nil dump delivered = %q, want -", got)
	}
}

// Delivered counts and the summary come from the records' curves; a
// failed query's record has none and counts in neither.
func TestFetchFlightzDelivered(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/debug/flightz" {
			http.NotFound(w, r)
			return
		}
		w.Write([]byte(`{"reason": "request", "total": 4, "records": [
			{"results": 5, "curve": {"results": 5, "auc_bandwidth": 0.4, "ttf_ns": 2000000, "per_site": [3, 2]}},
			{"outcome": "error", "err": "boom"},
			{"results": 4, "slow": true, "curve": {"results": 4, "auc_bandwidth": 0.5, "ttf_ns": 1000000, "per_site": [1, 3]}}
		]}`))
	}))
	defer srv.Close()
	tp := &top{client: srv.Client(), cluster: srv.URL}
	fz := tp.fetchFlightz()
	if fz == nil {
		t.Fatal("fetchFlightz returned nil for a serving coordinator")
	}
	if got := fz.delivered(0); got != "4" {
		t.Errorf("site 0 delivered = %q, want 4", got)
	}
	if got := fz.delivered(1); got != "5" {
		t.Errorf("site 1 delivered = %q, want 5", got)
	}
	// Beyond the curve's per-site capacity the column degrades.
	if got := fz.delivered(99); got != "-" {
		t.Errorf("untracked site delivered = %q, want -", got)
	}

	out, err := os.Create(filepath.Join(t.TempDir(), "frame"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	fz.writeSummary(out)
	raw, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	if want := "queries: 2 retained (4 recorded, 1 slow)  ttfr p50 2.00 ms  auc(bw) p50 0.500"; !strings.Contains(string(raw), want) {
		t.Errorf("summary %q, want %q", raw, want)
	}
}
