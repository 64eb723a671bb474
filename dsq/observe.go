package dsq

import (
	"context"
	"io"
	"log/slog"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/progress"
	"repro/internal/obs/slo"
	"repro/internal/obs/transcript"
	"repro/internal/transport"
)

// Protocol observability: per-query traces, process metrics, structured
// logs, flight recording, online invariant auditing and cluster health.

type (
	// Event is one traced protocol step (see Options.OnEvent).
	Event = core.Event
	// EventKind labels protocol steps.
	EventKind = core.EventKind
	// Trace collects one query's phase timings, event tallies and
	// per-site wait/service split (attach via Options.Trace; every other
	// count is on the Report). Safe to Summary() while the query runs.
	Trace = core.Trace
	// TraceSummary is a point-in-time snapshot of a Trace.
	TraceSummary = core.TraceSummary
	// Phase names one coordinator-side protocol phase.
	Phase = core.Phase
	// PhaseStat is the span count and total wall time of one phase.
	PhaseStat = core.PhaseStat
	// BandwidthSnapshot holds tuple/message/byte counters.
	BandwidthSnapshot = transport.Snapshot
	// Metrics is a process-wide metrics registry: counters, gauges and
	// histograms with Prometheus text and JSON exposition. Pass it to
	// ClusterConfig.Metrics and serve Metrics.Handler() at /metrics.
	Metrics = obs.Registry
)

// Protocol event kinds.
const (
	// EventToServer: a site shipped a representative to the coordinator.
	EventToServer = core.EventToServer
	// EventExpunge: e-DSUD dropped a queued tuple without broadcast.
	EventExpunge = core.EventExpunge
	// EventBroadcast: a feedback tuple went out to the other sites.
	EventBroadcast = core.EventBroadcast
	// EventPrune: sites discarded local skyline tuples.
	EventPrune = core.EventPrune
	// EventReport: a tuple qualified and joined the answer.
	EventReport = core.EventReport
	// EventReject: a broadcast tuple fell short of the threshold.
	EventReject = core.EventReject
	// EventRefill: a site was asked for its next representative.
	EventRefill = core.EventRefill
	// EventFeedbackSelect: the coordinator picked the next feedback tuple.
	EventFeedbackSelect = core.EventFeedbackSelect
)

// Protocol phases, for indexing TraceSummary.Phases.
const (
	// PhaseToServer: representatives shipping up (Init + refills).
	PhaseToServer = core.PhaseToServer
	// PhaseFeedbackSelect: bound recomputation, expunging and selection.
	PhaseFeedbackSelect = core.PhaseFeedbackSelect
	// PhaseServerDelivery: the Evaluate broadcast round trips.
	PhaseServerDelivery = core.PhaseServerDelivery
	// PhaseLocalPruning: folding the sites' factors into the verdict.
	PhaseLocalPruning = core.PhaseLocalPruning
)

// NewTrace returns an empty per-query trace for Options.Trace.
func NewTrace() *Trace { return core.NewTrace() }

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// QueryID renders a query ID (a query's session ID) as the 16-hex-digit
// query_id used to correlate coordinator logs, site logs and flight
// records.
func QueryID(id uint64) string { return obs.QueryID(id) }

// NewLogger builds a structured logger writing to w in the given format
// ("text" or "json") at the given minimum level. Attach it via
// ClusterConfig.Logger and site Engine.SetLogger for query-ID-correlated
// logs.
func NewLogger(w io.Writer, format string, level slog.Level) (*slog.Logger, error) {
	return obs.NewLogger(w, format, level)
}

// ParseLogLevel parses "debug", "info", "warn" or "error" (empty =
// info) into a slog level, for wiring -log-level style flags.
func ParseLogLevel(s string) (slog.Level, error) { return obs.ParseLogLevel(s) }

// Cluster health, flight recording and online auditing.
type (
	// SiteHealth is one site's health-probe outcome: a status snapshot,
	// or the error that prevented one (see Cluster.Health).
	SiteHealth = core.SiteHealth
	// SiteStatus is a site daemon's self-reported health snapshot.
	SiteStatus = msg.SiteStatus
	// FlightRecorder is an always-on ring buffer of recent per-query
	// records, dumpable after the fact (attach via
	// ClusterConfig.FlightRecorder, serve Handler() at /debug/flightz).
	FlightRecorder = flight.Recorder
	// FlightRecord is one entry of the flight recorder's ring: a query's
	// outcome and costs, its delivery curve and its transcript's path,
	// keyed by query_id.
	FlightRecord = flight.Record
	// Auditor samples completed queries and re-checks the paper's
	// invariants against exact and Monte-Carlo oracles.
	Auditor = audit.Auditor
	// AuditConfig tunes an Auditor; the zero value plus a Fraction works.
	AuditConfig = audit.Config
	// AuditOutcome summarises one audited query.
	AuditOutcome = audit.Outcome
	// AuditViolation is one failed invariant check.
	AuditViolation = audit.Violation
)

// NewFlightRecorder returns a flight recorder holding the most recent
// size query records (size <= 0 selects the default of 256).
func NewFlightRecorder(size int) *FlightRecorder { return flight.New(size) }

// Progressive-delivery observability: per-query delivery curves and the
// explain report.
type (
	// DeliveryDigest is one query's delivery curve: checkpointed (t, k)
	// pairs, the normalized progress AUCs (time and bandwidth axes),
	// time-to-first/last result and per-site delivered counts. Every
	// Report carries one (Report.Curve), and so does the query's
	// FlightRecord.
	DeliveryDigest = progress.Digest
	// DeliveryPoint is one point on a delivery curve: the K-th result,
	// its time since query start and the cumulative tuples shipped by
	// then (Report.Progress, DeliveryDigest checkpoints).
	DeliveryPoint = progress.Point
)

// WriteExplain renders a completed query as a per-query explain report:
// delivery timeline, per-site contribution table, phase breakdown and
// the query_id cross-links (the dsud-query -explain output). tr is the
// Trace the query ran with, or nil; the per-site wait/service split and
// the phase breakdown are then omitted.
func WriteExplain(w io.Writer, rep *Report, tr *Trace) error {
	return core.WriteExplain(w, rep, tr)
}

// NewAuditor builds an online invariant auditor. reg may be nil.
func NewAuditor(cfg AuditConfig, reg *Metrics) *Auditor { return audit.New(cfg, reg) }

// Windowed latency telemetry and declarative SLOs.
type (
	// Window is a rotating log-bucketed latency histogram covering
	// roughly the last one-to-two widths, with zero-allocation Observe
	// and quantile estimation by bucket interpolation (a Cluster's own
	// are Cluster.Windows; expose one via ExposeWindow).
	Window = obs.Window
	// WindowSnapshot is a merged point-in-time view of a Window.
	WindowSnapshot = obs.WindowSnapshot
	// SLOMonitor evaluates declarative objectives over live telemetry
	// and serves /slostatusz (see NewSLOMonitor).
	SLOMonitor = slo.Monitor
	// SLOStatus is one objective's latest evaluation.
	SLOStatus = slo.Status
	// SLOObjective is one declarative target (LatencySLO, ErrorRateSLO).
	SLOObjective = slo.Objective
)

// DefWindowWidth is the default latency-window rotation width.
const DefWindowWidth = obs.DefWindowWidth

// NewWindow returns a rotating latency window (width <= 0 selects
// DefWindowWidth).
func NewWindow(width time.Duration) *Window { return obs.NewWindow(width) }

// NewSLOMonitor builds a monitor over the given objectives; call
// Evaluate (or Run) and serve Handler at /slostatusz.
func NewSLOMonitor(objectives ...SLOObjective) *SLOMonitor { return slo.New(objectives...) }

// LatencySLO targets a windowed latency quantile, e.g. p99 < 50ms.
func LatencySLO(name string, w *Window, quantile float64, max time.Duration) SLOObjective {
	return slo.Latency(name, w, quantile, max)
}

// ErrorRateSLO targets a failure fraction between evaluations; total and
// errors are monotone counter reads (e.g. Counter.Value).
func ErrorRateSLO(name string, total, errors func() int64, max float64) SLOObjective {
	return slo.ErrorRate(name, total, errors, max)
}

// ExposeWindow registers w's live p50/p95/p99 (seconds), rate, sample
// count and sum as gauges on reg, Prometheus-summary style.
func ExposeWindow(reg *Metrics, name string, w *Window, labels ...string) {
	obs.ExposeWindow(reg, name, w, labels...)
}

// The protocol black-box recorder: wire-level transcript capture,
// offline deterministic replay and transcript diffing.
type (
	// Transcript is one recorded query's complete coordinator↔site
	// exchange plus its pinned outcome, read back from a .dstr file (the
	// query's FlightRecord names it).
	Transcript = transcript.Transcript
	// TranscriptDiff is the outcome of comparing two transcripts: the
	// human-readable differences and, when the recorded feedback
	// sequences disagree, the first (site, round) of divergence.
	TranscriptDiff = transcript.DiffResult
	// ReplayResult is one offline replay's outcome: the replayed report
	// and every disagreement with the recording.
	ReplayResult = core.ReplayResult
)

// ReadTranscript loads a recorded transcript (.dstr) from disk.
func ReadTranscript(path string) (*Transcript, error) { return transcript.ReadFile(path) }

// Replay re-runs a recorded query offline through the real round engine
// against stub sites answering verbatim from the recording — no
// sockets — and checks the outcome against the transcript's pinned
// summary and the delivery invariants. onResult, when non-nil, streams
// the replayed deliveries.
func Replay(ctx context.Context, t *Transcript, onResult func(Result)) (*ReplayResult, error) {
	return core.Replay(ctx, t, onResult)
}

// CompareTranscripts diffs two recordings of the "same" query (message
// counts, per-phase bytes, feedback sequences, pinned outcomes),
// localizing any disagreement to the first divergent protocol round.
func CompareTranscripts(a, b *Transcript) (*TranscriptDiff, error) { return transcript.Compare(a, b) }

// The cluster watch: a periodic status poll of every site (start it with
// Cluster.Watch, serve ClusterWatch.Handler at /clusterz).
type (
	// ClusterWatch is a running watch: each site's retained polls and the
	// /clusterz + federation read surfaces.
	ClusterWatch = core.ClusterWatch
	// Clusterz is the one-endpoint cluster introspection document served
	// at /clusterz.
	Clusterz = core.Clusterz
	// ClusterzSite is one site's entry in the Clusterz document.
	ClusterzSite = core.ClusterzSite
	// WatchPoint is one answered poll in a site's /clusterz history.
	WatchPoint = core.WatchPoint
)
