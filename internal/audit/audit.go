// Package audit is the online invariant auditor: for a sampled fraction
// of completed queries it re-derives, from the ground-truth union of the
// site partitions, the correctness guarantees the paper proves —
//
//   - Soundness (eq. 5): every reported tuple's exact global skyline
//     probability reaches the query threshold q, and matches the
//     probability the coordinator reported.
//   - Progressive monotone delivery: under plain DSUD with its own
//     selection rule, feedback tuples are broadcast in non-increasing
//     local-probability order (Corollary 1 is what makes termination
//     sound, and it rests on this order).
//   - No false dismissal: tuples the protocol never reported — victims
//     of Observation-2 site pruning or Corollary-2 expunging — truly
//     fall below q. Checked on a bounded random sample of the union.
//
// The oracle is the brute-force eq. 3/4/5 evaluation in
// internal/uncertain (exact, O(n) per tuple); when configured, a
// Monte-Carlo cross-check from internal/montecarlo additionally guards
// the oracle itself on small unions. Findings feed dsud_audit_* counters
// in the obs registry, structured slog records correlated by query_id,
// and a flight-recorder dump so the offending query's context is
// preserved.
//
// Auditing a query costs one KindShipAll sweep (a baseline query's worth
// of bandwidth) plus bounded oracle work — that is why it is sampled,
// never always-on.
package audit

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/montecarlo"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/uncertain"
)

// Check names, used as the counter label and in log records.
const (
	CheckSoundness  = "soundness"
	CheckMonotone   = "monotone-delivery"
	CheckDismissal  = "false-dismissal"
	CheckMonteCarlo = "monte-carlo"
)

var checkNames = []string{CheckSoundness, CheckMonotone, CheckDismissal, CheckMonteCarlo}

// Config tunes an Auditor. The zero value plus a Fraction is usable;
// every bound has a sensible default.
type Config struct {
	// Fraction in [0,1] is the probability that a completed query is
	// audited (the -audit-fraction flag). 0 disables sampling entirely;
	// 1 audits every query.
	Fraction float64
	// MaxReportChecks bounds how many reported tuples the soundness
	// check re-derives (default 16; <0 = unlimited).
	MaxReportChecks int
	// MaxDismissalChecks bounds how many unreported union tuples the
	// no-false-dismissal check samples (default 32; <0 = unlimited).
	MaxDismissalChecks int
	// MCSamples enables the Monte-Carlo oracle cross-check with that
	// many sampled possible worlds (0 disables, the default).
	MCSamples int
	// MCMaxTuples skips the Monte-Carlo check on unions larger than
	// this (default 512) — sampling worlds over a huge union costs more
	// than the audit is worth.
	MCMaxTuples int
	// Epsilon absorbs floating-point noise in probability comparisons
	// (default 1e-9).
	Epsilon float64
	// Seed fixes the sampling RNG for reproducible audits; 0 seeds from
	// the clock.
	Seed int64
	// Logger receives one Error record per violation and one Debug
	// record per clean audit, correlated by query_id. Nil = no logging.
	Logger *slog.Logger
	// Flight, when set, is dumped (reason "audit-violation") whenever an
	// audit finds at least one violation, preserving the recent query
	// history around the offender.
	Flight *flight.Recorder
}

// Violation is one failed invariant check.
type Violation struct {
	Check string
	// Tuple is the offending tuple (zero ID for sequence-level checks
	// like monotone delivery).
	Tuple uncertain.TupleID
	// Got and Want are the observed and required values, check-specific
	// (probabilities for soundness/dismissal, sequence values for
	// monotonicity).
	Got, Want float64
	Detail    string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: tuple %d: got %v, want %v (%s)", v.Check, v.Tuple, v.Got, v.Want, v.Detail)
}

// Outcome summarises one audited query.
type Outcome struct {
	// QueryID correlates with the coordinator/site logs.
	QueryID string
	// Checks counts individual invariant evaluations performed.
	Checks int
	// SkippedChecks counts evaluations not performed because a bound
	// (MaxReportChecks, MaxDismissalChecks, MCMaxTuples) cut them off.
	SkippedChecks int
	Violations    []Violation
}

// Clean reports a violation-free audit.
func (o *Outcome) Clean() bool { return len(o.Violations) == 0 }

// Auditor samples completed queries and re-checks their invariants. Safe
// for concurrent use. Construct with New.
type Auditor struct {
	cfg Config

	mu  sync.Mutex
	rng *rand.Rand

	audited    atomic.Int64
	violations atomic.Int64

	// Counters are nil (and no-op) when the auditor is built without a
	// registry.
	obsQueries    *obs.Counter
	obsSkipped    *obs.Counter
	obsChecks     map[string]*obs.Counter
	obsViolations map[string]*obs.Counter
}

// New builds an auditor. reg may be nil (no metrics); cfg.Logger and
// cfg.Flight may be nil.
func New(cfg Config, reg *obs.Registry) *Auditor {
	if cfg.MaxReportChecks == 0 {
		cfg.MaxReportChecks = 16
	}
	if cfg.MaxDismissalChecks == 0 {
		cfg.MaxDismissalChecks = 32
	}
	if cfg.MCMaxTuples == 0 {
		cfg.MCMaxTuples = 512
	}
	if cfg.Epsilon == 0 {
		cfg.Epsilon = 1e-9
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	a := &Auditor{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
	if reg != nil {
		reg.Describe(
			"dsud_audit_queries_total", "Completed queries picked for an online invariant audit.",
			"dsud_audit_checks_total", "Individual invariant evaluations performed, by check.",
			"dsud_audit_violations_total", "Invariant violations found by the online auditor, by check.",
			"dsud_audit_skipped_total", "Invariant evaluations skipped because an audit bound cut them off.",
		)
		a.obsQueries = reg.Counter("dsud_audit_queries_total")
		a.obsSkipped = reg.Counter("dsud_audit_skipped_total")
		a.obsChecks = make(map[string]*obs.Counter, len(checkNames))
		a.obsViolations = make(map[string]*obs.Counter, len(checkNames))
		for _, name := range checkNames {
			a.obsChecks[name] = reg.Counter("dsud_audit_checks_total", "check", name)
			a.obsViolations[name] = reg.Counter("dsud_audit_violations_total", "check", name)
		}
	}
	return a
}

// Audited returns how many queries this auditor has audited.
func (a *Auditor) Audited() int64 { return a.audited.Load() }

// Violations returns the total violations found across all audits.
func (a *Auditor) Violations() int64 { return a.violations.Load() }

// ShouldAudit flips the sampling coin for one completed query.
func (a *Auditor) ShouldAudit() bool {
	if a == nil || a.cfg.Fraction <= 0 {
		return false
	}
	if a.cfg.Fraction >= 1 {
		return true
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.rng.Float64() < a.cfg.Fraction
}

// MaybeAudit samples and, when the coin lands, audits: the common call
// site for daemons. Returns (nil, nil) when the query was not sampled.
func (a *Auditor) MaybeAudit(ctx context.Context, c *core.Cluster, opts core.Options, rep *core.Report) (*Outcome, error) {
	if !a.ShouldAudit() {
		return nil, nil
	}
	return a.Audit(ctx, c, opts, rep)
}

// Audit re-checks one completed query's invariants against the exact
// oracle. It fetches the union of the site partitions itself (one
// KindShipAll sweep). The returned Outcome lists violations; err is
// non-nil only when the audit could not run (e.g. a site died mid-fetch)
// — an unauditable query is not a violation.
func (a *Auditor) Audit(ctx context.Context, c *core.Cluster, opts core.Options, rep *core.Report) (*Outcome, error) {
	if rep == nil {
		return nil, fmt.Errorf("audit: nil report")
	}
	union, _, err := c.Partitions(ctx)
	if err != nil {
		return nil, fmt.Errorf("audit: fetching partitions: %w", err)
	}
	out := &Outcome{QueryID: obs.QueryID(rep.QueryID)}
	a.auditSoundness(out, union, opts, rep)
	a.auditMonotone(out, opts, rep)
	a.auditDismissal(out, union, opts, rep)
	a.auditMonteCarlo(out, union, opts, rep)

	a.audited.Add(1)
	a.obsQueries.Inc()
	a.obsSkipped.Add(int64(out.SkippedChecks))
	a.violations.Add(int64(len(out.Violations)))
	for _, v := range out.Violations {
		if ctr := a.obsViolations[v.Check]; ctr != nil {
			ctr.Inc()
		}
		if a.cfg.Logger != nil {
			a.cfg.Logger.Error("audit violation",
				"query_id", out.QueryID, "algorithm", opts.Algorithm.String(),
				"threshold", opts.Threshold, "check", v.Check, "tuple", v.Tuple,
				"got", v.Got, "want", v.Want, "detail", v.Detail)
		}
	}
	if !out.Clean() && a.cfg.Flight != nil {
		if path, err := a.cfg.Flight.Dump("audit-violation"); err == nil && path != "" && a.cfg.Logger != nil {
			a.cfg.Logger.Warn("flight recorder dumped", "query_id", out.QueryID, "path", path)
		}
	}
	if out.Clean() && a.cfg.Logger != nil {
		a.cfg.Logger.Debug("audit clean",
			"query_id", out.QueryID, "algorithm", opts.Algorithm.String(),
			"checks", out.Checks, "skipped", out.SkippedChecks)
	}
	return out, nil
}

// countCheck tallies one evaluation of the named check.
func (a *Auditor) countCheck(out *Outcome, name string) {
	out.Checks++
	if ctr := a.obsChecks[name]; ctr != nil {
		ctr.Inc()
	}
}

// sampleIndices returns up to max distinct indices from [0, n) in random
// order (all of them when max < 0 or max >= n), and how many were left
// out.
func (a *Auditor) sampleIndices(n, max int) (picked []int, skipped int) {
	a.mu.Lock()
	perm := a.rng.Perm(n)
	a.mu.Unlock()
	if max >= 0 && max < n {
		return perm[:max], n - max
	}
	return perm, 0
}

// auditSoundness re-derives the exact global skyline probability (eq. 5
// via the eq. 3 brute force over the union) for a bounded sample of the
// reported tuples: each must reach the threshold AND match the
// probability the coordinator reported.
func (a *Auditor) auditSoundness(out *Outcome, union uncertain.DB, opts core.Options, rep *core.Report) {
	if len(rep.Skyline) == 0 {
		return
	}
	idx, skipped := a.sampleIndices(len(rep.Skyline), a.cfg.MaxReportChecks)
	out.SkippedChecks += skipped
	for _, i := range idx {
		m := rep.Skyline[i]
		a.countCheck(out, CheckSoundness)
		exact := union.SkyProb(m.Tuple, opts.Dims)
		if exact < opts.Threshold-a.cfg.Epsilon {
			out.Violations = append(out.Violations, Violation{
				Check: CheckSoundness, Tuple: m.Tuple.ID, Got: exact, Want: opts.Threshold,
				Detail: "reported tuple below threshold",
			})
			continue
		}
		if math.Abs(exact-m.Prob) > 1e-6 {
			out.Violations = append(out.Violations, Violation{
				Check: CheckSoundness, Tuple: m.Tuple.ID, Got: m.Prob, Want: exact,
				Detail: "reported probability disagrees with oracle",
			})
		}
	}
}

// auditMonotone checks the feedback-broadcast order. Only plain DSUD
// under its own selection rule guarantees a non-increasing
// local-probability sequence; e-DSUD reorders by Corollary-2 bounds and
// the round-robin ablation breaks the order on purpose, so those
// queries are exempt.
func (a *Auditor) auditMonotone(out *Outcome, opts core.Options, rep *core.Report) {
	if opts.Algorithm != core.DSUD || opts.Policy != core.PolicyAlgorithm {
		return
	}
	if len(rep.FeedbackLocal) < 2 {
		return
	}
	a.countCheck(out, CheckMonotone)
	for i := 1; i < len(rep.FeedbackLocal); i++ {
		if rep.FeedbackLocal[i] > rep.FeedbackLocal[i-1]+a.cfg.Epsilon {
			out.Violations = append(out.Violations, Violation{
				Check: CheckMonotone, Got: rep.FeedbackLocal[i], Want: rep.FeedbackLocal[i-1],
				Detail: fmt.Sprintf("feedback %d out of order", i),
			})
		}
	}
}

// auditDismissal spot-checks no-false-dismissal: a bounded random sample
// of union tuples the query did NOT report must truly fall below the
// threshold. Exempt when the query asked for truncation (TopK or
// MaxResults), where dropping qualified tuples is the requested
// semantics.
func (a *Auditor) auditDismissal(out *Outcome, union uncertain.DB, opts core.Options, rep *core.Report) {
	if opts.TopK > 0 || opts.MaxResults > 0 {
		return
	}
	reported := make(map[uncertain.TupleID]bool, len(rep.Skyline))
	for _, m := range rep.Skyline {
		reported[m.Tuple.ID] = true
	}
	var unreported []int
	for i := range union {
		if !reported[union[i].ID] {
			unreported = append(unreported, i)
		}
	}
	if len(unreported) == 0 {
		return
	}
	idx, skipped := a.sampleIndices(len(unreported), a.cfg.MaxDismissalChecks)
	out.SkippedChecks += skipped
	for _, i := range idx {
		t := union[unreported[i]]
		a.countCheck(out, CheckDismissal)
		exact := union.SkyProb(t, opts.Dims)
		if exact >= opts.Threshold+a.cfg.Epsilon {
			out.Violations = append(out.Violations, Violation{
				Check: CheckDismissal, Tuple: t.ID, Got: 0, Want: exact,
				Detail: "qualified tuple was never reported (false dismissal)",
			})
		}
	}
}

// auditMonteCarlo cross-validates the brute-force oracle itself with the
// sampled-worlds estimator on small unions: every reported tuple's
// estimate must agree with its reported probability within sampling
// noise (4 standard errors). Disabled unless MCSamples is set.
func (a *Auditor) auditMonteCarlo(out *Outcome, union uncertain.DB, opts core.Options, rep *core.Report) {
	if a.cfg.MCSamples <= 0 || len(rep.Skyline) == 0 {
		return
	}
	if len(union) > a.cfg.MCMaxTuples {
		out.SkippedChecks++
		return
	}
	a.mu.Lock()
	seed := a.rng.Int63()
	a.mu.Unlock()
	ests, err := montecarlo.SkyProbs(union, opts.Dims, a.cfg.MCSamples, seed)
	if err != nil {
		out.SkippedChecks++
		return
	}
	byID := make(map[uncertain.TupleID]montecarlo.Estimate, len(ests))
	for _, e := range ests {
		byID[e.Tuple.ID] = e
	}
	for _, m := range rep.Skyline {
		e, ok := byID[m.Tuple.ID]
		if !ok {
			continue
		}
		a.countCheck(out, CheckMonteCarlo)
		tol := 4*e.StdErr + a.cfg.Epsilon
		if math.Abs(e.Prob-m.Prob) > tol {
			out.Violations = append(out.Violations, Violation{
				Check: CheckMonteCarlo, Tuple: m.Tuple.ID, Got: m.Prob, Want: e.Prob,
				Detail: fmt.Sprintf("reported probability outside %d-sample MC tolerance %.4g", a.cfg.MCSamples, tol),
			})
		}
	}
}
