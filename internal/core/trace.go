package core

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"text/tabwriter"
	"time"

	"repro/internal/codec"
	"repro/internal/obs"
	"repro/internal/round"
)

// PhaseStat accumulates the spans attributed to one phase.
type PhaseStat struct {
	// Spans is the number of measured intervals.
	Spans int
	// Total is the summed wall time of those intervals.
	Total time.Duration
}

// Trace collects one query's timing and protocol tallies. Attach a fresh
// (or reused) Trace via Options.Trace; Run resets it at query start and
// subscribes it to the round engine's step stream: events feed the
// tallies, phase begins and ends open and close the spans.
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
	tally   round.Tally
	// open is the stack of phases begun and not yet ended, innermost
	// last. Only the innermost clock runs, so a refill triggered
	// mid-expunge is charged to to-server and not to the selection phase.
	open []openSpan
	// reports holds the offset from query start of every EventReport, in
	// arrival order — the raw series behind time-to-first / time-to-k-th.
	reports []time.Duration

	// Distributed-tracing state. traceID identifies the query on the
	// wire; rootID is the coordinator's root span, under which both
	// coordinator phase spans and site spans hang. timeline accumulates
	// completed spans — coordinator spans as they End, site spans as
	// their batches are merged (already normalised into the
	// coordinator's clock). seen dedups replayed batches (the retry
	// transport can deliver one response twice); offsets keeps the last
	// estimated clock offset per site.
	traceID  uint64
	rootID   uint64
	timeline []obs.SpanRecord
	seen     map[spanKey]struct{}
	offsets  map[int]time.Duration
	dropped  int
	badBlobs int
}

// openSpan is one phase interval in flight: wall0 is when it opened, t0
// when its clock last started, acc what the clock had accrued by then.
type openSpan struct {
	phase     Phase
	wall0, t0 time.Time
	acc       time.Duration
}

// spanKey identifies one site span for deduplication.
type spanKey struct {
	site int
	id   uint64
}

// maxTimelineSpans bounds per-query span memory; beyond it spans are
// counted in DroppedSpans instead of stored.
const maxTimelineSpans = 16384

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
	t.tally = round.Tally{}
	t.open = t.open[:0]
	t.reports = t.reports[:0]
	t.traceID = obs.NewSpanID()
	t.rootID = obs.NewSpanID()
	t.timeline = t.timeline[:0]
	t.seen = nil
	t.offsets = nil
	t.dropped = 0
	t.badBlobs = 0
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
// phase: a nested begin stops the outer clock and its end restarts it,
// while the timeline span keeps the whole wall interval (the timeline
// shows when the phase was open; the totals show attributable work).
func (t *Trace) step(s round.Step) {
	if t == nil {
		return
	}
	var now time.Time
	if s.Kind != round.StepEvent || s.Event.Kind == EventReport {
		now = time.Now()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tally.Observe(s)
	last := len(t.open) - 1
	switch s.Kind {
	case round.StepBegin:
		if last >= 0 {
			t.open[last].acc += now.Sub(t.open[last].t0)
		}
		t.open = append(t.open, openSpan{phase: s.Phase, wall0: now, t0: now})
	case round.StepEnd:
		sp := t.open[last]
		t.open = t.open[:last]
		t.phases[sp.phase].Spans++
		t.phases[sp.phase].Total += sp.acc + now.Sub(sp.t0)
		t.record(obs.SpanRecord{
			ID:     obs.NewSpanID(),
			Parent: t.rootID,
			Name:   sp.phase.String(),
			Site:   obs.CoordinatorSite,
			Start:  sp.wall0.UnixNano(),
			End:    now.UnixNano(),
		})
		if last > 0 {
			t.open[last-1].t0 = now
		}
	default:
		if t.tallies == nil {
			t.tallies = make(map[EventKind]int)
		}
		t.tallies[s.Event.Kind]++
		if s.Event.Kind == EventReport {
			t.reports = append(t.reports, now.Sub(t.start))
		}
	}
}

// record appends one completed span to the timeline. Called with t.mu
// held.
func (t *Trace) record(r obs.SpanRecord) {
	if len(t.timeline) >= maxTimelineSpans {
		t.dropped++
		return
	}
	t.timeline = append(t.timeline, r)
}

// context returns the trace context to stamp on outgoing RPCs. Nil-safe:
// a nil (or unstarted) trace yields the unsampled zero value, so the
// request path pays one pointer test and no allocation.
func (t *Trace) context() obs.TraceContext {
	if t == nil {
		return obs.TraceContext{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.started {
		return obs.TraceContext{}
	}
	return obs.TraceContext{TraceID: t.traceID, Parent: t.rootID, Sampled: true}
}

// ID returns the query's trace identifier (0 for nil or unstarted).
func (t *Trace) ID() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.traceID
}

// mergeSiteBlob decodes a piggybacked span batch and merges it. Corrupt
// blobs are counted, never fatal: tracing must not fail a query.
func (t *Trace) mergeSiteBlob(site int, blob []byte, sent, recv time.Time) {
	if t == nil || len(blob) == 0 {
		return
	}
	batch, err := codec.DecodeSpanBatch(blob)
	if err != nil || batch == nil {
		t.mu.Lock()
		t.badBlobs++
		t.mu.Unlock()
		return
	}
	t.MergeSiteSpans(site, batch, sent, recv)
}

// MergeSiteSpans folds one site's completed spans into the trace,
// normalising the site's clock into the coordinator's: the batch's
// SiteClock (site time at encode) is paired with the coordinator's
// send/receive timestamps around the carrying RPC, and the NTP-style
// midpoint estimate offset = SiteClock − (sent+recv)/2 is subtracted
// from every span. Offsets of either sign are handled, batches from a
// different trace (stale retries) are dropped, replayed spans are
// deduplicated by (site, span ID), and merging after the query has
// finished still lands the spans — late batches must not be lost.
// Nil-safe.
func (t *Trace) MergeSiteSpans(site int, batch *obs.SpanBatch, sent, recv time.Time) {
	if t == nil || batch == nil {
		return
	}
	mid := sent.UnixNano() + recv.Sub(sent).Nanoseconds()/2
	offset := batch.SiteClock - mid
	t.mu.Lock()
	defer t.mu.Unlock()
	if batch.Ctx.TraceID != 0 && batch.Ctx.TraceID != t.traceID {
		t.dropped += len(batch.Spans)
		return
	}
	if t.offsets == nil {
		t.offsets = make(map[int]time.Duration)
	}
	t.offsets[site] = time.Duration(offset)
	if t.seen == nil {
		t.seen = make(map[spanKey]struct{})
	}
	for _, s := range batch.Spans {
		key := spanKey{site: site, id: s.ID}
		if _, dup := t.seen[key]; dup {
			continue
		}
		t.seen[key] = struct{}{}
		s.Site = site // the coordinator's numbering is authoritative
		s.Start -= offset
		s.End -= offset
		t.record(s)
	}
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
	// Iterations is the number of coordinator loop iterations so far.
	Iterations int
	// Events tallies every protocol event kind observed.
	Events map[EventKind]int
	// PrunedLocal sums the sites' feedback-prune counts.
	PrunedLocal int
	// ReportTimes holds the offset from query start of each reported
	// result, in arrival order.
	ReportTimes []time.Duration

	// TraceID is the query's wire-level trace identifier, as carried in
	// every RPC's trace context and every correlated log record.
	TraceID uint64
	// Timeline holds every completed span — the root query span, the
	// coordinator's phase spans (Site == obs.CoordinatorSite) and the
	// merged site spans (Site >= 0, clock-normalised into coordinator
	// time) — sorted by start time. Empty unless the trace was sampled.
	Timeline []obs.SpanRecord
	// ClockOffsets holds the last NTP-style clock-offset estimate per
	// site (site clock minus coordinator clock; negative when the site's
	// clock runs behind).
	ClockOffsets map[int]time.Duration
	// DroppedSpans counts spans discarded by the timeline cap or by
	// stale-trace filtering; BadBlobs counts undecodable span batches.
	DroppedSpans int
	BadBlobs     int
}

// SiteSpans returns how many timeline spans originated at local sites.
func (s TraceSummary) SiteSpans() int {
	n := 0
	for _, sp := range s.Timeline {
		if sp.Site >= 0 {
			n++
		}
	}
	return n
}

// Summary snapshots the trace. Safe to call while the query runs.
func (t *Trace) Summary() TraceSummary {
	if t == nil {
		return TraceSummary{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := TraceSummary{
		Done:         !t.end.IsZero(),
		Iterations:   t.tally.Iterations,
		PrunedLocal:  t.tally.PrunedLocal,
		Events:       make(map[EventKind]int, len(t.tallies)),
		ReportTimes:  append([]time.Duration(nil), t.reports...),
		TraceID:      t.traceID,
		DroppedSpans: t.dropped,
		BadBlobs:     t.badBlobs,
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
	if t.started && (len(t.timeline) > 0 || s.Done) {
		rootEnd := t.end
		if rootEnd.IsZero() {
			rootEnd = time.Now()
		}
		s.Timeline = make([]obs.SpanRecord, 0, len(t.timeline)+1)
		s.Timeline = append(s.Timeline, obs.SpanRecord{
			ID:    t.rootID,
			Name:  "query",
			Site:  obs.CoordinatorSite,
			Start: t.start.UnixNano(),
			End:   rootEnd.UnixNano(),
		})
		s.Timeline = append(s.Timeline, t.timeline...)
		sort.SliceStable(s.Timeline, func(i, j int) bool { return s.Timeline[i].Start < s.Timeline[j].Start })
	}
	if len(t.offsets) > 0 {
		s.ClockOffsets = make(map[int]time.Duration, len(t.offsets))
		for site, off := range t.offsets {
			s.ClockOffsets[site] = off
		}
	}
	return s
}

// TimeToFirst returns the latency of the first reported result, or 0 when
// nothing has been reported yet.
func (s TraceSummary) TimeToFirst() time.Duration {
	if len(s.ReportTimes) == 0 {
		return 0
	}
	return s.ReportTimes[0]
}

// TimeToKth returns the latency of the k-th reported result (1-based), or
// 0 when fewer than k results have arrived.
func (s TraceSummary) TimeToKth(k int) time.Duration {
	if k < 1 || len(s.ReportTimes) < k {
		return 0
	}
	return s.ReportTimes[k-1]
}

// WriteTable renders the summary as an aligned phase-timing table — the
// format dsud-bench's -trace-out emits for the Fig. 12/13 runs.
func (s TraceSummary) WriteTable(w io.Writer) error {
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
	if ttf := s.TimeToFirst(); ttf > 0 {
		fmt.Fprintf(tw, "time-to-first\t\t%s\t\n", ttf)
	}
	return tw.Flush()
}
