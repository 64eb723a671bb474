package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/site"
	"repro/internal/transport"
	"repro/internal/uncertain"
)

// Sustained-load soak harness: an open-loop generator offers mixed
// query+update traffic to a cluster at a configured rate and profile,
// classifies every request (ok / error / deadline), and reports latency
// percentiles per iteration. Open loop means arrivals are scheduled by
// the clock, not by completions, and each request's latency is measured
// from its *scheduled* arrival — a saturated cluster therefore shows the
// queueing delay it actually inflicts instead of the flattering
// closed-loop numbers a blocked generator would produce (the coordinated
// omission trap).

// Arrival-rate profiles.
const (
	// ProfileSteady offers a constant TargetRPS.
	ProfileSteady = "steady"
	// ProfileBurst alternates BurstPeriod at BurstFactor×RPS with
	// BurstPeriod at the base RPS.
	ProfileBurst = "burst"
	// ProfileRamp ramps linearly from 0 to 2×RPS over each iteration
	// (mean RPS), exercising both idle and overload ends.
	ProfileRamp = "ramp"
)

// SoakOptions tunes one soak run.
type SoakOptions struct {
	// RPS is the offered request rate (default 50).
	RPS float64
	// Duration is one iteration's length (default 5s); Iterations is how
	// many iterations run (default 3 — distributions, not points).
	Duration   time.Duration
	Iterations int
	// Workers bounds concurrent in-flight queries (default 8). In an
	// open-loop design workers are capacity, not rate: arrivals beyond
	// the pool queue up and their wait counts as latency.
	Workers int
	// Deadline is the per-request budget (default 2s); requests past it
	// classify as deadline, not error.
	Deadline time.Duration
	// Threshold and Algorithm shape the query mix (defaults: the bench
	// workload's threshold, EDSUD).
	Threshold float64
	Algorithm core.Algorithm
	// UpdateFraction in [0,1) is the share of offered traffic that is
	// insert/delete maintenance through a core.Maintainer (default 0).
	// Updates are serialised on one goroutine (the Maintainer is not safe
	// for concurrent use), so a high fraction self-limits.
	UpdateFraction float64
	// Profile selects the arrival shape (default ProfileSteady);
	// BurstFactor and BurstPeriod parameterise ProfileBurst (defaults 4
	// and 1s).
	Profile     string
	BurstFactor float64
	BurstPeriod time.Duration
	// Seed fixes the update-tuple stream (default 11).
	Seed int64
	// Window, when set, observes every request's scheduled-arrival
	// latency — the feed for live quantile exposition and SLO objectives
	// in dsud-loadgen. (Time-to-first-result needs no option here: the
	// cluster's own window, Cluster.SetLatencyWindows, sees every query.)
	Window *obs.Window
	// UpdateWindow, when set, observes every incremental update's
	// (insert/delete maintenance) end-to-end latency. UpdateMetrics,
	// when set, registers the dsud_update_* counters on it. Both only
	// matter with UpdateFraction > 0.
	UpdateWindow  *obs.Window
	UpdateMetrics *obs.Registry
	// Server, when set, routes every query through the materialized
	// serving tier (core.Server) instead of running protocol rounds on
	// the cluster, and routes update traffic through Server.Insert /
	// Server.Delete so the materialization stays exact under churn.
	// Mode is the Options.Mode served queries carry (default ModeAuto
	// when Server is set; ignored otherwise).
	Server *core.Server
	Mode   core.Mode
	// Auditor, when set, samples completed queries through the online
	// invariant auditor (its Fraction decides how often).
	Auditor *audit.Auditor
	// Requests and Failures, when set, count every classified request and
	// every non-ok outcome live as they complete — the feed for SLO
	// error-rate objectives evaluated mid-run. Both are nil-safe.
	Requests *obs.Counter
	Failures *obs.Counter
	// Logf, when set, receives per-iteration progress lines.
	Logf func(format string, args ...any)
}

func (o SoakOptions) withDefaults() SoakOptions {
	if o.RPS <= 0 {
		o.RPS = 50
	}
	if o.Duration <= 0 {
		o.Duration = 5 * time.Second
	}
	if o.Iterations <= 0 {
		o.Iterations = 3
	}
	if o.Workers <= 0 {
		o.Workers = 8
	}
	if o.Deadline <= 0 {
		o.Deadline = 2 * time.Second
	}
	if o.Threshold <= 0 {
		o.Threshold = DefaultThreshold
	}
	if o.Algorithm == 0 {
		o.Algorithm = core.EDSUD
	}
	if o.Profile == "" {
		o.Profile = ProfileSteady
	}
	if o.BurstFactor <= 1 {
		o.BurstFactor = 4
	}
	if o.BurstPeriod <= 0 {
		o.BurstPeriod = time.Second
	}
	if o.Seed == 0 {
		o.Seed = 11
	}
	if o.Server != nil && o.Mode == core.ModeProtocol {
		o.Mode = core.ModeAuto
	}
	return o
}

// rate returns the offered rate at elapsed time t into an iteration.
func (o SoakOptions) rate(t time.Duration) float64 {
	switch o.Profile {
	case ProfileBurst:
		if (t/o.BurstPeriod)%2 == 0 {
			return o.RPS * o.BurstFactor
		}
		return o.RPS
	case ProfileRamp:
		frac := float64(t) / float64(o.Duration)
		if frac > 1 {
			frac = 1
		}
		return o.RPS * 2 * frac
	default:
		return o.RPS
	}
}

// gap returns the inter-arrival delay after an arrival at elapsed time t.
// The ramp profile cannot sample rate(t) pointwise: rate(0) is zero, so
// the first gap would be effectively infinite and the whole iteration
// would emit one request. Instead integrate the linear rate — cumulative
// arrivals satisfy N(t) = RPS·t²/Duration, so the arrival after t lands
// at sqrt(t² + Duration/RPS) — which also yields exactly RPS·Duration
// arrivals per iteration (the documented mean).
func (o SoakOptions) gap(t time.Duration) time.Duration {
	if o.Profile == ProfileRamp {
		ts := t.Seconds()
		next := math.Sqrt(ts*ts + o.Duration.Seconds()/o.RPS)
		return time.Duration((next - ts) * float64(time.Second))
	}
	r := o.rate(t)
	if r < 1e-3 {
		r = 1e-3
	}
	return time.Duration(float64(time.Second) / r)
}

// soakTally accumulates one iteration's outcomes.
type soakTally struct {
	mu       sync.Mutex
	latsMS   []float64 // ok queries only, scheduled-arrival latency
	ok       atomic.Int64
	errs     atomic.Int64
	deadline atomic.Int64
	// live feeds for mid-run SLO evaluation (nil-safe)
	requests *obs.Counter
	failures *obs.Counter
}

// record classifies one completed query and, on success, contributes its
// scheduled-arrival latency to the iteration's percentiles.
func (t *soakTally) record(lat time.Duration, err error) {
	t.recordOutcome(err)
	if err == nil {
		ms := float64(lat) / float64(time.Millisecond)
		t.mu.Lock()
		t.latsMS = append(t.latsMS, ms)
		t.mu.Unlock()
	}
}

// recordOutcome classifies a completed request without contributing a
// latency sample — update traffic counts toward outcomes and the live
// SLO feeds, but its latency (taken under the quiesce write lock) stays
// out of the query latency distribution.
func (t *soakTally) recordOutcome(err error) {
	t.requests.Inc()
	switch {
	case err == nil:
		t.ok.Add(1)
	case errors.Is(err, context.DeadlineExceeded):
		t.deadline.Add(1)
		t.failures.Inc()
	default:
		t.errs.Add(1)
		t.failures.Inc()
	}
}

// Soak drives the cluster with opts and aggregates the per-iteration
// percentiles into a SoakResult. The cluster must already be open; Soak
// does not own it. ValidateProfile rejects unknown profile names before
// any traffic is offered.
func Soak(ctx context.Context, cluster *core.Cluster, opts SoakOptions) (*SoakResult, error) {
	opts = opts.withDefaults()
	if err := ValidateProfile(opts.Profile); err != nil {
		return nil, err
	}
	if opts.UpdateFraction < 0 || opts.UpdateFraction >= 1 {
		return nil, fmt.Errorf("experiments: update fraction %v outside [0,1)", opts.UpdateFraction)
	}

	// The update stream needs a Maintainer, whose constructor runs the
	// initial global query — do it once, outside the measured window.
	// When a Server is the target its own maintainer takes the updates
	// instead: a second maintainer would diverge from the materialized
	// answer the served queries read.
	var maint *core.Maintainer
	if opts.UpdateFraction > 0 && opts.Server == nil {
		var err error
		maint, err = core.NewMaintainer(ctx, cluster, core.Options{
			Threshold: opts.Threshold, Algorithm: opts.Algorithm,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: soak maintainer: %w", err)
		}
		maint.Instrument(opts.UpdateMetrics)
		if opts.UpdateWindow != nil {
			maint.SetLatencyWindow(opts.UpdateWindow)
		}
	}
	if opts.UpdateFraction > 0 && opts.Server != nil {
		opts.Server.InstrumentUpdates(opts.UpdateMetrics)
		if opts.UpdateWindow != nil {
			opts.Server.SetUpdateLatencyWindow(opts.UpdateWindow)
		}
	}
	upd := &updateStream{
		maint: maint,
		srv:   opts.Server,
		rng:   rand.New(rand.NewSource(opts.Seed)),
		dims:  cluster.Dims(),
		sites: cluster.Sites(),
	}

	res := &SoakResult{
		TargetRPS:       opts.RPS,
		DurationSeconds: opts.Duration.Seconds(),
		Iterations:      opts.Iterations,
		Workers:         opts.Workers,
		Profile:         opts.Profile,
		UpdateFraction:  opts.UpdateFraction,
		Latency:         make(map[string]Dist),
	}
	var p50s, p95s, p99s, qpss []float64
	for it := 0; it < opts.Iterations; it++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		tally, err := soakIteration(ctx, cluster, opts, upd)
		if err != nil {
			return nil, fmt.Errorf("experiments: soak iteration %d: %w", it, err)
		}
		ok, errs, dl := tally.ok.Load(), tally.errs.Load(), tally.deadline.Load()
		res.Requests += ok + errs + dl
		res.Errors += errs
		res.Deadline += dl
		sort.Float64s(tally.latsMS)
		if len(tally.latsMS) > 0 {
			p50s = append(p50s, Percentile(tally.latsMS, 0.50))
			p95s = append(p95s, Percentile(tally.latsMS, 0.95))
			p99s = append(p99s, Percentile(tally.latsMS, 0.99))
		}
		qpss = append(qpss, float64(len(tally.latsMS))/opts.Duration.Seconds())
		if opts.Logf != nil {
			line := fmt.Sprintf("iteration %d/%d: ok=%d err=%d deadline=%d", it+1, opts.Iterations, ok, errs, dl)
			if n := len(tally.latsMS); n > 0 {
				line += fmt.Sprintf(" p50=%.2fms p99=%.2fms",
					Percentile(tally.latsMS, 0.50), Percentile(tally.latsMS, 0.99))
			}
			opts.Logf("%s", line)
		}
	}
	if len(p50s) == 0 {
		return nil, fmt.Errorf("experiments: soak completed no successful requests (%d offered, %d errors, %d deadline)",
			res.Requests, res.Errors, res.Deadline)
	}
	res.ThroughputQPS = Summarize(qpss)
	res.Latency[SoakP50] = Summarize(p50s)
	res.Latency[SoakP95] = Summarize(p95s)
	res.Latency[SoakP99] = Summarize(p99s)
	return res, nil
}

// StartLocalSites generates an nTuples-point workload, partitions it
// across sites loopback site daemons, and returns their addresses plus a
// closer. It backs dsud-loadgen's self-hosted mode and the soak tests.
func StartLocalSites(nTuples, sites int, seed int64) ([]string, func(), error) {
	db, err := gen.Generate(gen.Config{
		N: nTuples, Dims: DefaultDims, Values: gen.Independent,
		Probs: gen.UniformProb, Seed: seed,
	})
	if err != nil {
		return nil, nil, err
	}
	parts, err := gen.Partition(db, sites, seed+1)
	if err != nil {
		return nil, nil, err
	}
	addrs := make([]string, len(parts))
	servers := make([]*transport.Server, 0, len(parts))
	closer := func() {
		for _, srv := range servers {
			srv.Close()
		}
	}
	for i, part := range parts {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closer()
			return nil, nil, err
		}
		srv := transport.NewServer(site.New(i, part, DefaultDims, 0), nil)
		go srv.Serve(lis)
		addrs[i] = lis.Addr().String()
		servers = append(servers, srv)
	}
	return addrs, closer, nil
}

// ValidateProfile rejects unknown arrival-profile names.
func ValidateProfile(p string) error {
	switch p {
	case ProfileSteady, ProfileBurst, ProfileRamp:
		return nil
	default:
		return fmt.Errorf("experiments: unknown soak profile %q (want %s, %s or %s)",
			p, ProfileSteady, ProfileBurst, ProfileRamp)
	}
}

// soakIteration runs one measured window: a scheduler goroutine emits
// arrivals on the clock, a worker pool executes queries, and a single
// updater goroutine serialises maintenance traffic.
func soakIteration(ctx context.Context, cluster *core.Cluster, opts SoakOptions, upd *updateStream) (*soakTally, error) {
	// Generous buffers keep the scheduler non-blocking (the open-loop
	// invariant): size them for the worst-case arrival count.
	peak := 1.0
	switch opts.Profile {
	case ProfileBurst:
		peak = opts.BurstFactor
	case ProfileRamp:
		peak = 2
	}
	capacity := int(opts.RPS*peak*opts.Duration.Seconds()) + opts.Workers + 16
	queries := make(chan time.Time, capacity)
	updates := make(chan time.Time, capacity)

	tally := &soakTally{requests: opts.Requests, failures: opts.Failures}
	// The auditor's ground truth is a fresh ship-all sweep, so an audit
	// racing the update stream sees data the audited query never saw and
	// reports false violations. Sampled queries therefore hold quiesce as
	// readers across the query+audit pair while the updater takes it as a
	// writer per op: audited queries run against frozen data, unsampled
	// traffic never touches the lock, and Go's writer-preferring RWMutex
	// keeps the update stream from starving.
	var quiesce sync.RWMutex
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for at := range queries {
				qopts := core.Options{Threshold: opts.Threshold, Algorithm: opts.Algorithm}
				if opts.Server != nil {
					qopts.Mode = opts.Mode
				}
				doAudit := opts.Auditor.ShouldAudit()
				if doAudit {
					quiesce.RLock()
				}
				qctx, cancel := context.WithDeadline(ctx, at.Add(opts.Deadline))
				var rep *core.Report
				var err error
				if opts.Server != nil {
					rep, err = opts.Server.Query(qctx, qopts)
				} else {
					rep, err = cluster.Query(qctx, qopts)
				}
				cancel()
				lat := time.Since(at)
				tally.record(lat, err)
				if err == nil {
					opts.Window.Observe(lat)
					if doAudit {
						// Audit failures are operational errors; invariant
						// violations are counted by the auditor itself and
						// surfaced by the caller via Violations().
						opts.Auditor.Audit(ctx, cluster, qopts, rep)
					}
				}
				if doAudit {
					quiesce.RUnlock()
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for at := range updates {
			uctx, cancel := context.WithDeadline(ctx, at.Add(opts.Deadline))
			quiesce.Lock()
			err := upd.step(uctx)
			quiesce.Unlock()
			cancel()
			tally.recordOutcome(err)
		}
	}()

	// Scheduler: emit arrivals on the clock until the window closes.
	start := time.Now()
	end := start.Add(opts.Duration)
	sched := start
	var updAcc float64
	var schedErr error
	for sched.Before(end) {
		if err := ctx.Err(); err != nil {
			schedErr = err
			break
		}
		if d := time.Until(sched); d > 0 {
			time.Sleep(d)
		}
		updAcc += opts.UpdateFraction
		if updAcc >= 1 && upd.active() {
			updAcc--
			updates <- sched
		} else {
			queries <- sched
		}
		sched = sched.Add(opts.gap(sched.Sub(start)))
	}
	close(queries)
	close(updates)
	wg.Wait()
	if schedErr != nil {
		return nil, schedErr
	}
	return tally, nil
}

// updateStream produces the soak's maintenance traffic: inserts of fresh
// synthetic tuples alternating with deletes of previously inserted ones,
// so the partitions stay near their original size over a long soak. All
// methods run on the single updater goroutine.
type updateStream struct {
	maint   *core.Maintainer
	srv     *core.Server // routes updates through the serving tier instead
	rng     *rand.Rand
	dims    int
	sites   int
	nextID  uint64
	live    []insertedTuple
	deleted int
}

// active reports whether the stream has an update target at all.
func (u *updateStream) active() bool { return u.maint != nil || u.srv != nil }

// insert and remove route one update to whichever maintenance target
// the soak drives.
func (u *updateStream) insert(ctx context.Context, home int, tu uncertain.Tuple) error {
	if u.srv != nil {
		return u.srv.Insert(ctx, home, tu)
	}
	return u.maint.Insert(ctx, home, tu)
}

func (u *updateStream) remove(ctx context.Context, home int, tu uncertain.Tuple) error {
	if u.srv != nil {
		return u.srv.Delete(ctx, home, tu)
	}
	return u.maint.Delete(ctx, home, tu)
}

type insertedTuple struct {
	home int
	tu   uncertain.Tuple
}

// soakIDBase keeps synthetic soak tuples out of any generated dataset's
// ID space (gen IDs are dense from 0).
const soakIDBase = uint64(1) << 40

// liveCap bounds the synthetic-tuple pool; past it every insert is paired
// with a delete of the oldest survivor.
const liveCap = 64

func (u *updateStream) step(ctx context.Context) error {
	if len(u.live) >= liveCap {
		victim := u.live[0]
		u.live = u.live[1:]
		u.deleted++
		return u.remove(ctx, victim.home, victim.tu)
	}
	pt := make(geom.Point, u.dims)
	for i := range pt {
		pt[i] = u.rng.Float64()
	}
	tu := uncertain.Tuple{
		ID:    uncertain.TupleID(soakIDBase + u.nextID),
		Point: pt,
		Prob:  0.05 + 0.9*u.rng.Float64(),
	}
	u.nextID++
	home := u.rng.Intn(u.sites)
	if err := u.insert(ctx, home, tu); err != nil {
		return err
	}
	u.live = append(u.live, insertedTuple{home: home, tu: tu})
	return nil
}
