package site

import (
	"context"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/uncertain"
)

func instrTestDB() uncertain.DB {
	return uncertain.DB{
		{ID: 1, Point: []float64{1, 4}, Prob: 0.9},
		{ID: 2, Point: []float64{2, 2}, Prob: 0.8},
		{ID: 3, Point: []float64{4, 1}, Prob: 0.7},
		{ID: 4, Point: []float64{5, 5}, Prob: 0.6}, // dominated by 2
	}
}

func TestEngineInstrument(t *testing.T) {
	eng := New(7, instrTestDB(), 2, 0)
	reg := obs.NewRegistry()
	eng.Instrument(reg)

	ctx := context.Background()
	if _, err := eng.Handle(ctx, &transport.Request{
		Kind: transport.KindInit, Session: 1,
		Query: transport.Query{Threshold: 0.1},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Handle(ctx, &transport.Request{Kind: transport.KindNext, Session: 1}); err != nil {
		t.Fatal(err)
	}

	if got := reg.Counter("dsud_site_requests_total", "kind", "init").Value(); got != 1 {
		t.Fatalf("init requests = %d, want 1", got)
	}
	if got := reg.Counter("dsud_site_requests_total", "kind", "next").Value(); got != 1 {
		t.Fatalf("next requests = %d, want 1", got)
	}
	if got := reg.Histogram("dsud_site_handle_seconds", nil, "kind", "init").Snapshot().Count; got != 1 {
		t.Fatalf("init latency observations = %d, want 1", got)
	}

	// Dedup replays must count as replays, not as executed requests.
	if _, err := eng.Handle(ctx, &transport.Request{Kind: transport.KindNext, Session: 1, Seq: 5, Client: 9}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Handle(ctx, &transport.Request{Kind: transport.KindNext, Session: 1, Seq: 5, Client: 9}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("dsud_site_replays_total").Value(); got != 1 {
		t.Fatalf("replays = %d, want 1", got)
	}
	if got := reg.Counter("dsud_site_requests_total", "kind", "next").Value(); got != 2 {
		t.Fatalf("next requests after replay = %d, want 2 (replay must not re-count)", got)
	}

	// Gauges read live state at scrape time.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"dsud_site_tuples 4",
		"dsud_site_sessions 1",
		"dsud_site_replica_size 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Init+Next+dedup'd Next shipped 3 of the skyline tuples; whatever is
	// left unshipped must match the engine's own accounting.
	if !strings.Contains(text, "dsud_site_local_skyline_unshipped") {
		t.Error("exposition missing dsud_site_local_skyline_unshipped")
	}

	// Feedback pruning feeds the pruned counter. Tuple 1 as feedback with
	// a harsh threshold prunes dominated survivors (if any remain).
	before := reg.Counter("dsud_site_pruned_total").Value()
	if _, err := eng.Handle(ctx, &transport.Request{
		Kind: transport.KindEvaluate, Session: 1,
		Feed: transport.Feedback{
			Tuple:         uncertain.Tuple{ID: 100, Point: []float64{0.5, 0.5}, Prob: 0.95},
			HomeLocalProb: 0.95,
		},
	}); err != nil {
		t.Fatal(err)
	}
	after := reg.Counter("dsud_site_pruned_total").Value()
	if after < before {
		t.Fatalf("pruned counter went backwards: %d -> %d", before, after)
	}
	if eng.PrunedTotal() == 0 && after != before {
		t.Fatalf("counter moved (%d -> %d) but engine pruned nothing", before, after)
	}
}

// The index series tell a cold search (a first or lower-than-ever
// threshold) from a warm prefix read.
func TestSkyIndexSeries(t *testing.T) {
	eng := New(0, instrTestDB(), 2, 0)
	reg := obs.NewRegistry()
	eng.Instrument(reg)
	for _, step := range []struct {
		q      float64
		builds int64
	}{{0.5, 1}, {0.6, 1}, {0.1, 2}, {0.3, 2}} {
		if _, err := eng.Handle(context.Background(), &transport.Request{
			Kind: transport.KindInit, Query: transport.Query{Threshold: step.q},
		}); err != nil {
			t.Fatal(err)
		}
		if got := reg.Counter("dsud_site_sky_index_builds_total").Value(); got != step.builds {
			t.Fatalf("after Init at %v: %d builds, want %d", step.q, got, step.builds)
		}
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	// Tuple 4 is dominated by the other three: 0.6 × 0.1 × 0.2 × 0.3 < 0.1.
	if want := "dsud_site_sky_index_members 3"; !strings.Contains(sb.String(), want) {
		t.Errorf("exposition missing %q", want)
	}
}

// TestUninstrumentedEngineUnaffected checks the zero-cost path: no
// registry, no instruments, identical behaviour.
func TestUninstrumentedEngineUnaffected(t *testing.T) {
	eng := New(0, instrTestDB(), 2, 0)
	eng.Instrument(nil) // must be a no-op
	ctx := context.Background()
	resp, err := eng.Handle(ctx, &transport.Request{
		Kind: transport.KindInit, Session: 1,
		Query: transport.Query{Threshold: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Exhausted {
		t.Fatal("skyline must not be empty")
	}
	if eng.obsOn {
		t.Fatal("nil registry must leave the engine uninstrumented")
	}
}
