package core

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/round"
	"repro/internal/transport"
)

// TestTracePaperExampleSequence replays the §5.3 worked example with a
// trace attached and checks the exact protocol narrative: the event
// stream's grammar, the span counts per phase, and that two runs produce
// identical sequences (the scripted example is deterministic).
func TestTracePaperExampleSequence(t *testing.T) {
	run := func() ([]Event, *Report, TraceSummary) {
		sites := paperExampleSites()
		clients := make([]transport.Client, len(sites))
		for i, s := range sites {
			clients[i] = s.client()
		}
		cluster, err := NewClusterFromClients(clients, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer cluster.Close()
		tr := NewTrace()
		var events []Event
		rep, err := Run(context.Background(), cluster, Options{
			Threshold: 0.3,
			Algorithm: EDSUD,
			Trace:     tr,
			OnEvent:   func(e Event) { events = append(events, e) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return events, rep, tr.Summary()
	}
	events, rep, sum := run()

	// Grammar: the stream opens with one to-server per site; every
	// broadcast is immediately preceded by its feedback-select for the
	// same tuple; every report/reject follows a broadcast of the same
	// tuple (with at most a prune in between); every late to-server is
	// introduced by its site's delivering refill.
	if len(events) < 3 {
		t.Fatalf("only %d events", len(events))
	}
	for i := 0; i < 3; i++ {
		if events[i].Kind != EventToServer || events[i].Iteration != 0 {
			t.Fatalf("event %d = %v, want initial to-server", i, events[i])
		}
	}
	for i, e := range events {
		switch e.Kind {
		case EventBroadcast:
			prev := events[i-1]
			if prev.Kind != EventFeedbackSelect || prev.Tuple.ID != e.Tuple.ID {
				t.Fatalf("broadcast of %d at %d not preceded by its feedback-select (got %v)",
					e.Tuple.ID, i, prev)
			}
		case EventReport, EventReject:
			// Walk back over an optional prune to the broadcast.
			j := i - 1
			if events[j].Kind == EventPrune {
				j--
			}
			if events[j].Kind != EventBroadcast || events[j].Tuple.ID != e.Tuple.ID {
				t.Fatalf("verdict for %d at %d not anchored to its broadcast", e.Tuple.ID, i)
			}
		case EventToServer:
			if e.Iteration > 0 {
				prev := events[i-1]
				if prev.Kind != EventRefill || prev.Site != e.Site || prev.Count != 1 {
					t.Fatalf("late to-server at %d not introduced by a delivering refill (got %v)", i, prev)
				}
			}
		}
	}

	// Tally cross-checks between stream, report and trace summary.
	if got := sum.Events[EventReport]; got != len(rep.Skyline) {
		t.Errorf("trace reports %d, skyline has %d", got, len(rep.Skyline))
	}
	if got := sum.Events[EventFeedbackSelect]; got != rep.Broadcasts {
		t.Errorf("trace feedback-selects %d, broadcasts %d", got, rep.Broadcasts)
	}
	if got := sum.Events[EventRefill]; got != rep.Refills {
		t.Errorf("trace refills %d, report says %d", got, rep.Refills)
	}
	if sum.Iterations != rep.Iterations {
		t.Errorf("trace iterations %d, report %d", sum.Iterations, rep.Iterations)
	}

	// Span counts: one to-server span for Init and one per broadcast,
	// holding the home site's refill and the refills of the candidates
	// expunged before it (plain e-DSUD never needs a wave of its own), one
	// selection span per iteration, one delivery and one pruning span per
	// broadcast.
	if got := sum.Phases[PhaseToServer].Spans; got != 1+rep.Broadcasts || rep.Refills <= rep.Broadcasts {
		t.Errorf("to-server spans %d for %d refills, want %d, fewer than the refills", got, rep.Refills, 1+rep.Broadcasts)
	}
	if got := sum.Phases[PhaseFeedbackSelect].Spans; got != rep.Iterations {
		t.Errorf("selection spans %d, want %d", got, rep.Iterations)
	}
	if got := sum.Phases[PhaseServerDelivery].Spans; got != rep.Broadcasts {
		t.Errorf("delivery spans %d, want %d", got, rep.Broadcasts)
	}
	if got := sum.Phases[PhaseLocalPruning].Spans; got != rep.Broadcasts {
		t.Errorf("pruning spans %d, want %d", got, rep.Broadcasts)
	}
	if !sum.Done {
		t.Error("summary after Run must be Done")
	}
	if sum.TimeToFirst() <= 0 || sum.TimeToFirst() > sum.Elapsed {
		t.Errorf("time-to-first %v outside (0, %v]", sum.TimeToFirst(), sum.Elapsed)
	}
	if got := sum.TimeToKth(len(rep.Skyline)); got < sum.TimeToFirst() {
		t.Errorf("time-to-last %v before time-to-first %v", got, sum.TimeToFirst())
	}
	if sum.TimeToKth(len(rep.Skyline)+1) != 0 {
		t.Error("time-to-kth beyond the answer must be 0")
	}

	// Determinism: a second run yields the identical event sequence.
	events2, _, _ := run()
	if len(events2) != len(events) {
		t.Fatalf("reruns differ in length: %d vs %d", len(events), len(events2))
	}
	for i := range events {
		a, b := events[i], events2[i]
		if a.Kind != b.Kind || a.Site != b.Site || a.Tuple.ID != b.Tuple.ID || a.Iteration != b.Iteration {
			t.Fatalf("rerun diverges at %d: %v vs %v", i, a, b)
		}
	}
}

// TestTraceSummaryOnRealWorkload checks the timing side on a workload big
// enough that every phase accrues measurable wall time.
func TestTraceSummaryOnRealWorkload(t *testing.T) {
	parts, _ := makeWorkload(t, 800, 3, 6, gen.Anticorrelated, 171)
	cluster, err := Open(ClusterConfig{Partitions: parts, Dims: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	tr := NewTrace()
	rep, err := Run(context.Background(), cluster, Options{Threshold: 0.3, Algorithm: EDSUD, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	sum := tr.Summary()
	if len(rep.Skyline) == 0 {
		t.Fatal("workload produced an empty skyline; pick a different seed")
	}
	for _, p := range Phases() {
		if sum.Phases[p].Spans == 0 {
			t.Errorf("phase %v recorded no spans", p)
		}
		if sum.Phases[p].Total <= 0 {
			t.Errorf("phase %v recorded no time", p)
		}
	}
	if sum.Elapsed <= 0 || sum.Elapsed < sum.Phases[PhaseServerDelivery].Total {
		t.Errorf("elapsed %v inconsistent with delivery total %v",
			sum.Elapsed, sum.Phases[PhaseServerDelivery].Total)
	}
	last := time.Duration(0)
	for i, r := range sum.ReportTimes {
		if r < last {
			t.Errorf("report time %d (%v) before its predecessor (%v)", i, r, last)
		}
		last = r
	}
	var sb strings.Builder
	if err := sum.WriteTable(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"to-server", "feedback-select", "server-delivery", "local-pruning", "elapsed", "time-to-first"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("table missing %q:\n%s", want, sb.String())
		}
	}

	// Reuse: the same Trace on a second query must start clean.
	rep2, err := Run(context.Background(), cluster, Options{Threshold: 0.3, Algorithm: DSUD, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	sum2 := tr.Summary()
	if got := sum2.Events[EventBroadcast]; got != rep2.Broadcasts {
		t.Errorf("reused trace holds %d broadcasts, second query made %d (stale data?)", got, rep2.Broadcasts)
	}
	if sum2.Events[EventExpunge] != 0 {
		t.Error("DSUD run shows expunges — trace not reset between queries")
	}
}

// TestConcurrentTracesNeverInterleave runs two queries concurrently on
// one cluster, each with its own Trace, and checks every tally matches
// its own query's report exactly — nothing bleeds across sessions.
func TestConcurrentTracesNeverInterleave(t *testing.T) {
	parts, _ := makeWorkload(t, 600, 3, 5, gen.Anticorrelated, 172)
	cluster, err := Open(ClusterConfig{Partitions: parts, Dims: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	const runs = 4
	traces := make([]*Trace, runs)
	reports := make([]*Report, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		traces[i] = NewTrace()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			algo := EDSUD
			if i%2 == 1 {
				algo = DSUD
			}
			reports[i], errs[i] = Run(context.Background(), cluster, Options{
				Threshold: 0.3, Algorithm: algo, Trace: traces[i],
			})
		}(i)
	}
	wg.Wait()
	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		sum := traces[i].Summary()
		rep := reports[i]
		if got := sum.Events[EventReport]; got != len(rep.Skyline) {
			t.Errorf("run %d: trace reports %d, skyline %d", i, got, len(rep.Skyline))
		}
		if got := sum.Events[EventBroadcast]; got != rep.Broadcasts {
			t.Errorf("run %d: trace broadcasts %d, report %d", i, got, rep.Broadcasts)
		}
		if got := sum.Events[EventExpunge]; got != rep.Expunged {
			t.Errorf("run %d: trace expunges %d, report %d", i, got, rep.Expunged)
		}
		if got := sum.Events[EventRefill]; got != rep.Refills {
			t.Errorf("run %d: trace refills %d, report %d", i, got, rep.Refills)
		}
		if sum.PrunedLocal != rep.PrunedLocal {
			t.Errorf("run %d: trace pruned %d, report %d", i, sum.PrunedLocal, rep.PrunedLocal)
		}
		if got := sum.Phases[PhaseServerDelivery].Spans; got != rep.Broadcasts {
			t.Errorf("run %d: delivery spans %d, broadcasts %d", i, got, rep.Broadcasts)
		}
	}
}

// TestNilTraceIsInert exercises the disabled path: a nil trace must
// no-op everywhere.
func TestNilTraceIsInert(t *testing.T) {
	var tr *Trace
	tr.begin(time.Now(), 7)
	tr.step(round.Step{Kind: round.StepBegin, Phase: PhaseToServer})
	tr.step(round.Step{Event: Event{Kind: EventReport}})
	tr.step(round.Step{Kind: round.StepEnd, Phase: PhaseToServer})
	tr.addCall(0, time.Millisecond, 1)
	tr.finish()
	sum := tr.Summary()
	if sum.Elapsed != 0 || len(sum.Events) != 0 || sum.QueryID != 0 || len(sum.Sites) != 0 {
		t.Fatalf("nil trace summary not empty: %+v", sum)
	}
}

// TestSpanPauseExcludesForeignWork checks the accounting primitive the
// expunge loop relies on: a phase nested inside another stops the outer
// phase's clock.
func TestSpanPauseExcludesForeignWork(t *testing.T) {
	tr := NewTrace()
	tr.begin(time.Now(), 1)
	tr.step(round.Step{Kind: round.StepBegin, Phase: PhaseFeedbackSelect})
	tr.step(round.Step{Kind: round.StepBegin, Phase: PhaseToServer})
	time.Sleep(20 * time.Millisecond) // foreign work, must not be charged
	tr.step(round.Step{Kind: round.StepEnd, Phase: PhaseToServer})
	tr.step(round.Step{Kind: round.StepEnd, Phase: PhaseFeedbackSelect})
	sum := tr.Summary()
	st := sum.Phases[PhaseFeedbackSelect]
	if st.Spans != 1 {
		t.Fatalf("spans = %d, want 1", st.Spans)
	}
	if st.Total > 10*time.Millisecond {
		t.Fatalf("span charged %v; the nested sleep leaked into the phase", st.Total)
	}
	if got := sum.Phases[PhaseToServer].Total; got < 20*time.Millisecond {
		t.Fatalf("nested phase charged %v, want the whole sleep", got)
	}
}

// An untraced query's per-step trace hooks are free: a nil trace takes
// phase steps and call timings without allocating.
func TestUnsampledZeroAllocations(t *testing.T) {
	var tr *Trace // nil trace = no timing
	if allocs := testing.AllocsPerRun(100, func() {
		tr.step(round.Step{Kind: round.StepBegin, Phase: PhaseToServer})
		tr.step(round.Step{Kind: round.StepEnd, Phase: PhaseToServer})
		tr.addCall(1, time.Millisecond, 1)
	}); allocs != 0 {
		t.Fatalf("untraced span path allocates %v per run", allocs)
	}
}

// Reusing one Trace across queries resets the query ID and the per-site
// time split along with everything else.
func TestTraceReuseResets(t *testing.T) {
	tr := NewTrace()
	tr.begin(time.Now(), 41)
	tr.addCall(2, 3*time.Millisecond, 1_000_000)
	tr.finish()
	if sum := tr.Summary(); sum.QueryID != 41 || len(sum.Sites) != 3 ||
		sum.Sites[2] != (SiteTime{CallNS: 3_000_000, ServiceNS: 1_000_000}) {
		t.Fatalf("first query's summary: %+v", sum)
	}

	tr.begin(time.Now(), 42)
	if sum := tr.Summary(); sum.QueryID != 42 || len(sum.Sites) != 0 {
		t.Fatalf("stale state survived reuse: %+v", sum)
	}
}
