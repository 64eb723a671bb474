package core

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"text/tabwriter"
	"time"

	"repro/internal/round"
)

// PhaseStat accumulates the spans attributed to one phase.
type PhaseStat struct {
	// Spans is the number of measured intervals.
	Spans int
	// Total is the summed wall time of those intervals.
	Total time.Duration
}

// Trace collects what only it measures of one query: the phase spans,
// the per-EventKind tally and each site's call and service time. Every
// other count of the query, and its delivery times, are on its Report.
// Attach a fresh (or reused) Trace via Options.Trace; Run resets it at
// query start and subscribes it to the round engine's step stream:
// events feed the tally, phase begins and ends open and close the spans.
// All methods are safe for concurrent use, so Summary can be read from
// another goroutine while the query is still running (live
// introspection). A nil *Trace is inert: every method no-ops, and the
// query loop pays a single pointer test per would-be span.
type Trace struct {
	mu      sync.Mutex
	started bool
	start   time.Time
	end     time.Time // zero until the query finishes
	phases  [numPhases]PhaseStat
	tallies map[EventKind]int
	// open is the stack of phases begun and not yet ended, innermost
	// last. Only the innermost clock runs, so a refill triggered
	// mid-expunge is charged to to-server and not to the selection phase.
	open []openSpan
	// sites holds, per site, the time its calls took at the coordinator
	// and at the site.
	sites []SiteTime
}

// openSpan is one phase interval in flight: t0 is when its clock last
// started, acc what the clock had accrued by then.
type openSpan struct {
	phase Phase
	t0    time.Time
	acc   time.Duration
}

// SiteTime splits the time a query's calls to one site took. CallNS sums
// each call as the coordinator timed it, simulated latency included;
// ServiceNS sums the handling time the site stamped on the replies.
// CallNS − ServiceNS is the time spent on the way there and back.
type SiteTime struct {
	CallNS    int64
	ServiceNS int64
}

// NewTrace returns an empty trace ready to attach to Options.Trace.
func NewTrace() *Trace { return &Trace{} }

// begin (re)arms the trace at query start. Reuse across queries is safe:
// each Run wipes the previous query's data.
func (t *Trace) begin(start time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.started = true
	t.start = start
	t.end = time.Time{}
	t.phases = [numPhases]PhaseStat{}
	t.tallies = make(map[EventKind]int)
	t.open = t.open[:0]
	t.sites = t.sites[:0]
}

// finish stamps the query end time.
func (t *Trace) finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.end = time.Now()
}

// step ingests one step of the query (the subscriber side of the round
// engine's stream). A phase's Total is the time it was the innermost open
// phase: a nested begin stops the outer clock and its end restarts it.
func (t *Trace) step(s round.Step) {
	if t == nil {
		return
	}
	var now time.Time
	if s.Kind != round.StepEvent {
		now = time.Now()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	last := len(t.open) - 1
	switch s.Kind {
	case round.StepBegin:
		if last >= 0 {
			t.open[last].acc += now.Sub(t.open[last].t0)
		}
		t.open = append(t.open, openSpan{phase: s.Phase, t0: now})
	case round.StepEnd:
		sp := t.open[last]
		t.open = t.open[:last]
		t.phases[sp.phase].Spans++
		t.phases[sp.phase].Total += sp.acc + now.Sub(sp.t0)
		if last > 0 {
			t.open[last-1].t0 = now
		}
	default:
		if t.tallies == nil {
			t.tallies = make(map[EventKind]int)
		}
		t.tallies[s.Event.Kind]++
	}
}

// addCall charges one timed call to site i: call as the coordinator
// timed it, serviceNS as the site stamped it on the reply.
func (t *Trace) addCall(i int, call time.Duration, serviceNS int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.sites) <= i {
		t.sites = append(t.sites, SiteTime{})
	}
	t.sites[i].CallNS += int64(call)
	t.sites[i].ServiceNS += serviceNS
}

// TraceSummary is a point-in-time copy of a Trace. Phase totals need not
// sum to Elapsed: spans measure the coordinator's attributable work, and
// untimed glue (sorting the final answer, context plumbing) falls outside
// every phase.
type TraceSummary struct {
	// Elapsed is time since query start (running) or total duration
	// (finished).
	Elapsed time.Duration
	// Done reports whether the query has finished.
	Done bool
	// Phases holds the per-phase span statistics, indexed by Phase.
	Phases [numPhases]PhaseStat
	// Events tallies every protocol event kind observed.
	Events map[EventKind]int
	// Sites holds, per site index, the time the query's calls took at the
	// coordinator and at the site.
	Sites []SiteTime
}

// Summary snapshots the trace. Safe to call while the query runs.
func (t *Trace) Summary() TraceSummary {
	if t == nil {
		return TraceSummary{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := TraceSummary{
		Done:   !t.end.IsZero(),
		Events: make(map[EventKind]int, len(t.tallies)),
		Sites:  append([]SiteTime(nil), t.sites...),
	}
	copy(s.Phases[:], t.phases[:])
	for k, n := range t.tallies {
		s.Events[k] = n
	}
	switch {
	case !t.started:
	case s.Done:
		s.Elapsed = t.end.Sub(t.start)
	default:
		s.Elapsed = time.Since(t.start)
	}
	return s
}

// WriteTable renders the summary as an aligned phase-timing table — the
// format dsud-bench's -trace-out emits for the Fig. 12/13 runs. ttf, the
// query's time to first result (its Report.Curve.TTFirstNS), closes the
// table when positive.
func (s TraceSummary) WriteTable(w io.Writer, ttf time.Duration) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "phase\tspans\ttotal\tmean\n")
	for _, p := range Phases() {
		st := s.Phases[p]
		mean := time.Duration(0)
		if st.Spans > 0 {
			mean = st.Total / time.Duration(st.Spans)
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\n", p, st.Spans, st.Total, mean)
	}
	fmt.Fprintf(tw, "elapsed\t\t%s\t\n", s.Elapsed)
	kinds := make([]EventKind, 0, len(s.Events))
	for k := range s.Events {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		fmt.Fprintf(tw, "events.%s\t%d\t\t\n", k, s.Events[k])
	}
	if ttf > 0 {
		fmt.Fprintf(tw, "time-to-first\t\t%s\t\n", ttf)
	}
	return tw.Flush()
}
