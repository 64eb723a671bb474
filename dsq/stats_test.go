package dsq_test

import (
	"context"
	"strings"
	"testing"

	"repro/dsq"
)

// A query's stats are its Report plus the Trace it ran with: the report
// names the query and its resolved algorithm, the trace times its phases.
func TestQueryWithStats(t *testing.T) {
	parts, union := workload(t, 600, 3, 5)
	cluster, err := dsq.Connect(dsq.ClusterConfig{Partitions: parts, Dims: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	trace := dsq.NewTrace()
	rep, err := cluster.Query(context.Background(), dsq.Options{Threshold: 0.3, Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	want := union.Skyline(0.3, nil)
	if len(rep.Skyline) != len(want) {
		t.Fatalf("answer size %d, central oracle %d", len(rep.Skyline), len(want))
	}
	if rep.Algorithm != dsq.EDSUD {
		t.Fatalf("algorithm = %v, want the resolved default EDSUD", rep.Algorithm)
	}
	if rep.QueryID == 0 {
		t.Error("report carries no query ID")
	}

	tr := trace.Summary()
	if !tr.Done {
		t.Error("trace must be finished after Query returns")
	}
	if tr.Elapsed <= 0 {
		t.Error("elapsed must be positive")
	}
	for _, p := range []dsq.Phase{dsq.PhaseToServer, dsq.PhaseFeedbackSelect, dsq.PhaseServerDelivery, dsq.PhaseLocalPruning} {
		if tr.Phases[p].Spans == 0 || tr.Phases[p].Total <= 0 {
			t.Errorf("phase %v not timed: %+v", p, tr.Phases[p])
		}
	}
	if rep.Curve.TTFirstNS <= 0 || len(rep.Progress) == 0 || rep.Progress[0].NS != rep.Curve.TTFirstNS {
		t.Error("time-to-first must be positive and the first progress point's when results were reported")
	}
	if got := tr.Events[dsq.EventReport]; got != len(rep.Skyline) {
		t.Errorf("trace reports %d, answer has %d", got, len(rep.Skyline))
	}
	if got := tr.Events[dsq.EventFeedbackSelect]; got != rep.Broadcasts {
		t.Errorf("trace feedback-selects %d, broadcasts %d", got, rep.Broadcasts)
	}

	// An untraced query carries the same record, and its own ID.
	rep2, err := cluster.Query(context.Background(), dsq.Options{Threshold: 0.3, Algorithm: dsq.DSUD})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Algorithm != dsq.DSUD {
		t.Fatalf("algorithm = %v, want DSUD", rep2.Algorithm)
	}
	if rep2.QueryID == 0 || rep2.QueryID == rep.QueryID {
		t.Errorf("query IDs %x then %x, want two distinct nonzero IDs", rep.QueryID, rep2.QueryID)
	}
}

func TestMetricsThroughFacade(t *testing.T) {
	parts, _ := workload(t, 300, 2, 3)
	reg := dsq.NewMetrics()
	cluster, err := dsq.Connect(dsq.ClusterConfig{Partitions: parts, Dims: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	if _, err := cluster.Query(context.Background(), dsq.Options{Threshold: 0.3}); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`dsud_queries_total{algorithm="e-dsud"} 1`,
		`dsud_rpc_requests_total{kind="evaluate",outcome="ok",site="0"}`,
		"dsud_rpc_duration_seconds_bucket",
		"dsud_transport_messages_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
