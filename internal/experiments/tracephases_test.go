package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestTracePhases(t *testing.T) {
	tables, err := TracePhases(context.Background(), "fig12", tiny)
	if err != nil {
		t.Fatal(err)
	}
	// Two workload cases x two algorithms.
	wantIDs := []string{
		"fig12-independent-" + core.DSUD.String(),
		"fig12-independent-" + core.EDSUD.String(),
		"fig12-anticorrelated-" + core.DSUD.String(),
		"fig12-anticorrelated-" + core.EDSUD.String(),
	}
	if len(tables) != len(wantIDs) {
		t.Fatalf("got %d tables, want %d", len(tables), len(wantIDs))
	}
	for i, table := range tables {
		if table.ID != wantIDs[i] {
			t.Errorf("table %d: ID %q, want %q", i, table.ID, wantIDs[i])
		}
		sum := table.Summary
		if !sum.Done {
			t.Errorf("%s: trace not finished", table.ID)
		}
		if sum.Elapsed <= 0 {
			t.Errorf("%s: elapsed %v", table.ID, sum.Elapsed)
		}
		for _, p := range core.Phases() {
			if sum.Phases[p].Spans == 0 || sum.Phases[p].Total <= 0 {
				t.Errorf("%s: phase %v not timed: %+v", table.ID, p, sum.Phases[p])
			}
		}
		if table.ttf <= 0 {
			t.Errorf("%s: no time-to-first-result", table.ID)
		}
		var buf bytes.Buffer
		if err := table.Render(&buf); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		if !strings.HasPrefix(out, "== "+table.ID+" ==\n") {
			t.Errorf("%s: render missing heading:\n%s", table.ID, out)
		}
		if !strings.Contains(out, "feedback-select") || !strings.Contains(out, "time-to-first") {
			t.Errorf("%s: render missing table rows:\n%s", table.ID, out)
		}
	}
}

func TestTracePhasesRejectsOtherIDs(t *testing.T) {
	if _, err := TracePhases(context.Background(), "fig8", tiny); err == nil {
		t.Fatal("fig8 has no progressiveness cases; TracePhases must refuse it")
	}
}
