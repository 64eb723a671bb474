// Package core implements the paper's contribution: the coordinator-side
// distributed skyline algorithms over uncertain data — the shipping
// Baseline (§3.2), DSUD (§5.1) and e-DSUD (§5.2) — together with the
// progressive result stream, the §5.4 update maintenance (incremental and
// naive), and the cluster plumbing that binds site engines to transports.
package core

import (
	"errors"
	"fmt"
	"log/slog"
	"time"

	"repro/internal/geom"
	"repro/internal/obs/progress"
	"repro/internal/round"
	"repro/internal/transport"
	"repro/internal/uncertain"
)

// Algorithm selects the query strategy.
type Algorithm int

// Supported algorithms.
const (
	// Baseline ships every partition to the coordinator and solves the
	// query centrally — correct, maximally expensive (§3.2).
	Baseline Algorithm = iota + 1
	// DSUD streams per-site representatives in descending local skyline
	// probability order and broadcasts each for exact evaluation (§5.1).
	DSUD
	// EDSUD adds the Corollary-2 feedback mechanism: approximate global
	// bounds choose the most dominant feedback and expunge hopeless
	// candidates without broadcasting them (§5.2).
	EDSUD

	// algorithmEnd is one past the last algorithm; per-algorithm tables
	// are sized by it.
	algorithmEnd
)

func (a Algorithm) String() string {
	switch a {
	case Baseline:
		return "baseline"
	case DSUD:
		return "dsud"
	case EDSUD:
		return "e-dsud"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Options configures one query execution.
type Options struct {
	// Threshold is the paper's q in (0,1]: report tuples whose global
	// skyline probability is at least q.
	Threshold float64
	// Dims optionally restricts dominance to a subspace (nil = full
	// space).
	Dims []int
	// Algorithm defaults to EDSUD when zero.
	Algorithm Algorithm
	// OnResult, when non-nil, is invoked synchronously as each qualified
	// skyline tuple is discovered — the paper's progressiveness hook.
	OnResult func(Result)
	// OnEvent, when non-nil, receives every protocol step (to-server,
	// expunge, feedback-select, broadcast, prune, report, reject, refill)
	// for tracing and debugging. Purely observational.
	OnEvent func(Event)
	// Trace, when non-nil, collects per-phase span timings and event
	// tallies for this query (delivery times are the Report's). Run
	// resets it at query start; read Trace.Summary during or after the
	// run. Purely
	// observational — a nil Trace costs one pointer test per span site.
	// When set, every RPC the query issues is Timed: the sites stamp
	// their handling time on the replies, and Summary().Sites splits each
	// site's calls into wait and service time.
	Trace *Trace
	// Logger, when non-nil, receives one structured record per query
	// (Info on completion, Error on failure), correlated with site logs
	// by query_id. Nil disables query logging entirely.
	Logger *slog.Logger
	// SlowQuery, when positive with Logger set, promotes queries that run
	// at least this long to a Warn record carrying, when Trace is set, the
	// per-phase time breakdown — the coordinator half of the slow-query log.
	SlowQuery time.Duration
	// MaxResults, when positive, stops the query as soon as that many
	// qualified tuples have been reported. The tuples delivered are the
	// first confirmed (not necessarily the k most probable); combined
	// with the progressive stream this gives cheap "give me some good
	// answers now" semantics.
	MaxResults int
	// TopK, when positive, changes the query semantics to "the K tuples
	// with the highest global skyline probability among those reaching
	// Threshold". The coordinator raises its working threshold to the
	// current K-th best confirmed probability, which expunges and
	// terminates far earlier than the full enumeration; the answer is
	// exact. DSUD-family algorithms only (the Baseline simply truncates
	// its sorted answer). Both early exits assume the feedback is the
	// queue maximum under the algorithm's own rule and, for e-DSUD, that
	// expunge has run, so Validate rejects TopK combined with Policy or
	// DisableExpunge.
	TopK int

	// Ablation switches. These exist to measure where e-DSUD's advantage
	// comes from (see BenchmarkAblation); production callers should leave
	// them zero.

	// Policy overrides the feedback-selection rule (default: the
	// algorithm's own rule — Corollary 2 bounds for e-DSUD, local
	// probability for DSUD).
	Policy FeedbackPolicy
	// DisableExpunge keeps e-DSUD from dropping queued tuples whose
	// Corollary-2 bound falls below q; every candidate is broadcast, as
	// in plain DSUD.
	DisableExpunge bool
	// DisableSitePruning turns off the Observation-2 local pruning at the
	// sites, so feedback tuples only contribute their eq. 9 factors.
	DisableSitePruning bool

	// Record forces black-box recording of this query regardless of the
	// transcript sink's sampling fraction (dsud-query -record). It needs
	// a sink attached (ClusterConfig.TranscriptDir / SetTranscriptSink);
	// without one it is a no-op.
	Record bool

	// Mode selects how the answer is produced. The default, ModeProtocol,
	// runs a full distributed protocol round and is the only mode
	// Cluster.Query accepts; ModeMaterialized and ModeAuto route through
	// the materialized serving tier and require a Server (Cluster.Serve).
	// See docs/SERVING.md for the decision table.
	Mode Mode
}

// Mode selects how a query's answer is produced.
type Mode int

// Query modes.
const (
	// ModeProtocol (the default) runs a full DSUD/e-DSUD protocol round:
	// read cost scales with cluster chatter, the answer is always fresh.
	ModeProtocol Mode = iota
	// ModeMaterialized answers from the Server's materialized global
	// skyline as a sorted-prefix read — O(answer) — refreshing first if
	// the store is stale. Queries the materialization cannot cover (a
	// threshold below the Server's floor, or a different subspace) fail
	// with ErrUncovered rather than silently falling back.
	ModeMaterialized
	// ModeAuto serves from the materialized store when it covers the
	// query and is fresh, joins (or triggers) a coalesced refresh when it
	// is stale, and falls back to a full protocol round when the store
	// cannot cover the query at all.
	ModeAuto
)

func (m Mode) String() string {
	switch m {
	case ModeProtocol:
		return "protocol"
	case ModeMaterialized:
		return "materialized"
	case ModeAuto:
		return "auto"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Source records how a Report's answer was produced.
type Source int

// Answer sources.
const (
	// SourceProtocol: a full distributed protocol round ran for this
	// query (the zero value — every pre-serving Report is protocol).
	SourceProtocol Source = iota
	// SourceMaterialized: a sorted-prefix read of the Server's
	// materialized skyline; no protocol traffic, Bandwidth is zero.
	SourceMaterialized
	// SourceRefreshed: a materialized read that first waited on a
	// (possibly shared) refresh round. The refresh round's bandwidth is
	// not attributed to the query — coalesced queries would double-count
	// it — so Bandwidth is zero here too.
	SourceRefreshed
)

func (s Source) String() string {
	switch s {
	case SourceProtocol:
		return "protocol"
	case SourceMaterialized:
		return "materialized"
	case SourceRefreshed:
		return "refreshed"
	default:
		return fmt.Sprintf("Source(%d)", int(s))
	}
}

// FeedbackPolicy selects which queued tuple the coordinator broadcasts
// next. The choice never affects correctness — only bandwidth and
// progressiveness.
type FeedbackPolicy int

// Feedback policies.
const (
	// PolicyAlgorithm uses the algorithm's own rule (the default).
	PolicyAlgorithm FeedbackPolicy = iota
	// PolicyRoundRobin cycles through the sites regardless of bounds — a
	// deliberately weak control for the ablation study.
	PolicyRoundRobin
)

func (p FeedbackPolicy) String() string {
	switch p {
	case PolicyAlgorithm:
		return "algorithm"
	case PolicyRoundRobin:
		return "round-robin"
	default:
		return fmt.Sprintf("FeedbackPolicy(%d)", int(p))
	}
}

// Typed option errors. Validate wraps each with the offending value, so
// callers branch with errors.Is and users still see the specifics.
var (
	// ErrThreshold reports a threshold q outside (0,1].
	ErrThreshold = errors.New("core: invalid threshold")
	// ErrSubspace reports a Dims subspace invalid for the data
	// dimensionality (out-of-range axis, duplicate, or empty non-nil).
	ErrSubspace = errors.New("core: invalid subspace")
	// ErrAlgorithm reports an unknown Algorithm value, or an
	// algorithm/option combination the engine rejects.
	ErrAlgorithm = errors.New("core: invalid algorithm")
	// ErrPolicy reports an unknown FeedbackPolicy value.
	ErrPolicy = errors.New("core: invalid feedback policy")
	// ErrResultLimit reports a negative MaxResults/TopK, both set, or TopK
	// combined with an ablation switch its early termination is unsound
	// under (Policy, DisableExpunge).
	ErrResultLimit = errors.New("core: invalid result limit")
	// ErrMode reports an unknown Options.Mode value.
	ErrMode = errors.New("core: invalid mode")
	// ErrNilContext reports a nil ctx passed to a query entry point.
	ErrNilContext = errors.New("core: nil context")
	// ErrNoServer reports a query whose Mode routes through the
	// materialized serving tier (ModeMaterialized/ModeAuto) issued
	// against a bare Cluster; build a Server with Cluster.Serve.
	ErrNoServer = errors.New("core: mode requires a Server (Cluster.Serve)")
)

// Validate checks the options against the cluster's data dimensionality
// and returns a typed error (ErrThreshold, ErrSubspace, ErrAlgorithm,
// ErrPolicy, ErrResultLimit, ErrMode — match with errors.Is) on the
// first violation. Query and Server.Query both call it;
// callers constructing options programmatically can call it early to
// fail before touching the cluster. dims <= 0 skips the subspace check.
func (o Options) Validate(dims int) error {
	if !(o.Threshold > 0 && o.Threshold <= 1) {
		return fmt.Errorf("%w: threshold %v outside (0,1]", ErrThreshold, o.Threshold)
	}
	if dims > 0 && !geom.ValidDims(o.Dims, dims) {
		return fmt.Errorf("%w: %v for dimensionality %d", ErrSubspace, o.Dims, dims)
	}
	switch o.Algorithm {
	case 0, Baseline, DSUD, EDSUD:
	default:
		return fmt.Errorf("%w: unknown algorithm %d", ErrAlgorithm, int(o.Algorithm))
	}
	switch o.Policy {
	case PolicyAlgorithm, PolicyRoundRobin:
	default:
		return fmt.Errorf("%w: unknown feedback policy %d", ErrPolicy, int(o.Policy))
	}
	if o.MaxResults < 0 {
		return fmt.Errorf("%w: negative MaxResults %d", ErrResultLimit, o.MaxResults)
	}
	if o.TopK < 0 {
		return fmt.Errorf("%w: negative TopK %d", ErrResultLimit, o.TopK)
	}
	if o.TopK > 0 && o.MaxResults > 0 {
		return fmt.Errorf("%w: TopK and MaxResults are mutually exclusive", ErrResultLimit)
	}
	if o.TopK > 0 && (o.Policy != PolicyAlgorithm || o.DisableExpunge) {
		return fmt.Errorf("%w: TopK terminates on the algorithm's own selection and expunge rules; policy %v, DisableExpunge %v",
			ErrResultLimit, o.Policy, o.DisableExpunge)
	}
	switch o.Mode {
	case ModeProtocol, ModeMaterialized, ModeAuto:
	default:
		return fmt.Errorf("%w: unknown mode %d", ErrMode, int(o.Mode))
	}
	return nil
}

// withDefaults resolves the defaulted fields — the one place the
// "zero Algorithm means e-DSUD" rule lives. Every entry point (Run,
// NewMaintainer, Server) normalises through it, so the resolved options
// a query executes with are identical everywhere.
func (o Options) withDefaults() Options {
	if o.Algorithm == 0 {
		o.Algorithm = EDSUD
	}
	return o
}

// Result is one progressively reported skyline tuple, carrying the
// provenance that justified its delivery. All fields are values — the
// result path allocates nothing beyond what the report itself retains.
type Result struct {
	Tuple uncertain.Tuple
	// GlobalProb is the exact global skyline probability (eq. 4/5) at
	// delivery time — the paper's P_g-sky(t).
	GlobalProb float64
	// Site is the index of the tuple's home site.
	Site int

	// Index is the 1-based delivery ordinal: this is the Index-th result
	// to reach the client (the k of the delivery curve).
	Index int
	// Phase is the protocol phase that produced the delivery. The
	// DSUD-family algorithms confirm results while folding eq. 9 factors
	// (PhaseLocalPruning), as does the Baseline's central solve.
	Phase Phase
	// Iteration is the coordinator feedback round that confirmed the
	// tuple (0 for the Baseline, which has no rounds).
	Iteration int

	// Broadcasts, Expunged, Refills and PrunedLocal snapshot the
	// query-wide protocol counters at the moment of delivery — the work
	// spent, and the candidates discarded, to justify this result.
	Broadcasts  int
	Expunged    int
	Refills     int
	PrunedLocal int
}

// Report is the one record of a completed query the caller holds: what
// the round engine computed (the answer, home sites, protocol tallies,
// per-site tallies and the feedback sequence — see round.Outcome) plus
// who ran it and what the coordinator measured around it.
type Report struct {
	round.Outcome
	// QueryID is the query's ID: the query_id of its log records, its
	// flight record and, for a protocol round, its sites' requests (the
	// round's session ID).
	QueryID uint64
	// Algorithm is the algorithm the query ran with (the default
	// resolved). A served read names its Source in the records instead.
	Algorithm Algorithm
	// Bandwidth is the transport meter delta for this query.
	Bandwidth transport.Snapshot
	// Elapsed is the total query duration.
	Elapsed time.Duration
	// Progress holds one point per reported tuple: its 1-based ordinal
	// K, the time NS since query start and the cumulative tuples shipped
	// by then — the raw series behind the paper's Fig. 12/13.
	Progress []progress.Point
	// Curve is the delivery-curve digest (checkpointed (t, k) pairs,
	// normalized progress AUCs, per-site delivered counts); Run always
	// populates it.
	Curve *progress.Digest `json:"curve,omitempty"`
	// Source records how the answer was produced: a protocol round (the
	// zero value), a materialized prefix read, or a materialized read
	// behind a refresh round. Cache-served reports carry a zero
	// Bandwidth — the serving tier moved no protocol traffic for them.
	Source Source
	// Resumed counts the materialized answer's members a protocol round
	// resumed from (Server.Query below the floor): it reported them at
	// once and ran only over the band below the floor. Zero for a round
	// from scratch; Source stays SourceProtocol either way.
	Resumed int
}

// ErrNoSites reports a query against an empty cluster.
var ErrNoSites = errors.New("core: cluster has no sites")
