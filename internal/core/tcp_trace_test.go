package core

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/gen"
	"repro/internal/obs"
)

// End-to-end distributed tracing over real sockets: a traced query
// against two TCP site daemons must yield ONE merged timeline holding
// the coordinator's phase spans and spans that originated at the sites,
// normalised into coordinator time — and that timeline must export as
// valid Chrome trace-event JSON.
func TestTCPTwoSiteMergedTimeline(t *testing.T) {
	parts, _ := makeWorkload(t, 400, 3, 2, gen.Anticorrelated, 71)
	addrs := startTCPSites(t, parts, 3)
	cluster, err := Open(ClusterConfig{Addrs: addrs, Dims: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	tr := NewTrace()
	if _, err := Run(context.Background(), cluster, Options{
		Threshold: 0.3, Algorithm: EDSUD, Trace: tr,
	}); err != nil {
		t.Fatal(err)
	}

	sum := tr.Summary()
	if sum.TraceID == 0 {
		t.Fatal("traced query has no trace ID")
	}
	if sum.BadBlobs != 0 {
		t.Fatalf("%d undecodable span blobs", sum.BadBlobs)
	}

	// One timeline: a root query span plus coordinator phase spans.
	coord := 0
	var sawRoot bool
	siteSeen := map[int]bool{}
	for _, s := range sum.Timeline {
		switch {
		case s.Site == obs.CoordinatorSite:
			coord++
			if s.Name == "query" {
				sawRoot = true
			}
		case s.Site >= 0:
			siteSeen[s.Site] = true
			if s.Site >= len(parts) {
				t.Fatalf("span from impossible site %d", s.Site)
			}
		}
		if s.End < s.Start {
			t.Fatalf("span %q runs backwards: %d..%d", s.Name, s.Start, s.End)
		}
	}
	if !sawRoot || coord < 2 {
		t.Fatalf("coordinator spans: %d (root=%v), want root plus phases", coord, sawRoot)
	}
	if got := sum.SiteSpans(); got < 2 {
		t.Fatalf("site-originated spans: %d, want >= 2", got)
	}
	if len(siteSeen) < 2 {
		t.Fatalf("spans from %d distinct sites, want both", len(siteSeen))
	}
	if len(sum.ClockOffsets) < 2 {
		t.Fatalf("clock offsets for %d sites, want 2", len(sum.ClockOffsets))
	}
	// The site handlers' own phases must be present, not just the RPC
	// roots, and each must carry its bandwidth ledger position.
	names := map[string]bool{}
	for _, s := range sum.Timeline {
		if s.Site >= 0 {
			names[s.Name] = true
		}
	}
	for _, want := range []string{"site-handle/init", "prtree-search", "encode-response"} {
		if !names[want] {
			t.Fatalf("missing site phase %q in timeline (have %v)", want, names)
		}
	}

	// Export: valid JSON in the Chrome trace-event shape.
	var buf bytes.Buffer
	if err := sum.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var complete, meta int
	pids := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			complete++
			if ev.Ts < 0 || ev.Dur < 0 {
				t.Fatalf("event %q has negative time: ts=%v dur=%v", ev.Name, ev.Ts, ev.Dur)
			}
		case "M":
			meta++
		default:
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
		pids[ev.Pid] = true
	}
	if complete != len(sum.Timeline) {
		t.Fatalf("%d complete events for %d timeline spans", complete, len(sum.Timeline))
	}
	if meta < 3 { // coordinator + two sites
		t.Fatalf("%d process_name metadata events, want >= 3", meta)
	}
	if !pids[0] || !pids[1] || !pids[2] {
		t.Fatalf("expected pids 0,1,2 in export, got %v", pids)
	}
}

// An untraced query over TCP must produce no blobs and an empty (or
// root-only) timeline — sampling stays off end to end.
func TestTCPUntracedQueryShipsNoSpans(t *testing.T) {
	parts, _ := makeWorkload(t, 200, 2, 2, gen.Independent, 72)
	addrs := startTCPSites(t, parts, 2)
	cluster, err := Open(ClusterConfig{Addrs: addrs, Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if _, err := Run(context.Background(), cluster, Options{Threshold: 0.3}); err != nil {
		t.Fatal(err)
	}
}
