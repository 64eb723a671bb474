package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/round"
	"repro/internal/serve"
	"repro/internal/uncertain"
)

// This file is the coordinator-side materialized serving tier: the
// Maintainer's answer is a sorted index (internal/serve) that its updates
// edit in place, and reads of it are O(answer) sorted-prefix scans
// instead of protocol rounds. See docs/SERVING.md.

// ErrUncovered reports a ModeMaterialized query the materialization
// cannot answer: its threshold lies below the Server's floor, or its
// subspace differs from the materialized one. ModeAuto queries fall
// back to a protocol round instead of failing.
var ErrUncovered = errors.New("core: query not covered by materialization")

// ServeConfig configures Cluster.Serve.
type ServeConfig struct {
	// Floor is the materialization threshold q0, in (0,1]: the store
	// holds every tuple with global skyline probability >= Floor, so any
	// query with Threshold >= Floor is a prefix read. Required.
	Floor float64
	// Dims optionally materializes a subspace (nil = full space). Only
	// queries over the same subspace are covered.
	Dims []int
	// Algorithm runs the initial round and every refresh (default
	// e-DSUD; Baseline is rejected — maintenance needs the per-site
	// state only the DSUD-family protocols establish).
	Algorithm Algorithm
	// MaxStaleness bounds the age of the materialization: a covered
	// query finding the last refresh older than this joins a coalesced
	// refresh round before being served. Zero trusts incremental
	// maintenance indefinitely — correct whenever every update flows
	// through Server.Insert/Delete.
	MaxStaleness time.Duration
	// Replicate pushes SKY(H) replicas to the sites and keeps them in
	// sync (Maintainer.EnableReplicas), letting sites veto hopeless
	// insert evaluations.
	Replicate bool
	// Metrics, when set, registers the serving counters
	// (dsud_serve_{hits,misses,refreshes,coalesced}_total), store gauges
	// and serve-latency quantiles on the registry.
	Metrics *obs.Registry
	// Window, when set, receives one latency observation per served
	// read (default: a fresh one-minute window, readable via Stats and
	// the /servez handler).
	Window *obs.Window
}

// Server answers skyline queries from a materialized global skyline,
// refreshing it with (coalesced) protocol rounds only when the
// freshness policy demands. Build one with Cluster.Serve. Safe for
// concurrent use: reads share an RLock on the store; updates and
// refreshes serialise on the maintainer, and a read that resumes from
// the store holds mu's read side so that none lands under it.
type Server struct {
	cluster  *Cluster
	opts     Options // materialization options (Threshold = floor)
	window   *obs.Window
	maxStale time.Duration
	key      string // coalescing key: one refresh per floor

	// mu serialises maintainer operations (write side) against resumed
	// reads (read side), which run concurrently with each other.
	mu    sync.RWMutex
	maint *Maintainer // its store is the materialization every read serves

	group     serve.Group
	hits      atomic.Int64
	misses    atomic.Int64
	refreshes atomic.Int64
	coalesced atomic.Int64

	cHits, cMisses, cRefreshes, cCoalesced *obs.Counter
}

// Serve materializes the global skyline at cfg.Floor with one protocol
// round and returns the serving tier over it. The Server owns a
// Maintainer: route updates through Server.Insert/Delete and the
// materialization stays exact; if updates can bypass the server, set
// MaxStaleness (or call Invalidate) so reads re-converge via refresh
// rounds.
func (c *Cluster) Serve(ctx context.Context, cfg ServeConfig) (*Server, error) {
	if ctx == nil {
		return nil, ErrNilContext
	}
	mopts := Options{Threshold: cfg.Floor, Dims: cfg.Dims, Algorithm: cfg.Algorithm}.withDefaults()
	if err := mopts.Validate(c.dims); err != nil {
		return nil, fmt.Errorf("core: serve config: %w", err)
	}
	maint, err := NewMaintainer(ctx, c, mopts)
	if err != nil {
		return nil, err
	}
	if cfg.Replicate {
		if err := maint.EnableReplicas(ctx); err != nil {
			return nil, err
		}
	}
	win := cfg.Window
	if win == nil {
		win = obs.NewWindow(time.Minute)
	}
	s := &Server{
		cluster:  c,
		opts:     mopts,
		window:   win,
		maxStale: cfg.MaxStaleness,
		key:      fmt.Sprintf("refresh@%g", cfg.Floor),
		maint:    maint,
	}
	s.instrument(cfg.Metrics)
	return s, nil
}

func (s *Server) instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Describe(
		"dsud_serve_hits_total", "Queries answered from the fresh materialized skyline.",
		"dsud_serve_misses_total", "Materialized-tier queries that needed a refresh round or a protocol fallback.",
		"dsud_serve_refreshes_total", "Refresh protocol rounds run by the serving tier.",
		"dsud_serve_coalesced_total", "Queries that shared another query's in-flight refresh round.",
		"dsud_serve_entries", "Materialized skyline entries at the floor threshold.",
		"dsud_serve_version", "Materialized store version (bumps on every mutation).",
	)
	s.cHits = reg.Counter("dsud_serve_hits_total")
	s.cMisses = reg.Counter("dsud_serve_misses_total")
	s.cRefreshes = reg.Counter("dsud_serve_refreshes_total")
	s.cCoalesced = reg.Counter("dsud_serve_coalesced_total")
	reg.GaugeFunc("dsud_serve_entries", func() float64 { return float64(s.maint.store.Len()) })
	reg.GaugeFunc("dsud_serve_version", func() float64 { return float64(s.maint.store.Version()) })
	obs.ExposeWindow(reg, "dsud_serve_latency", s.window)
}

// covers reports whether the materialization can answer opts exactly:
// same subspace, threshold at or above the floor.
func (s *Server) covers(opts Options) bool {
	return s.maint.store.Covers(opts.Threshold) && sameDims(opts.Dims, s.opts.Dims)
}

// sameDims compares two subspaces as sets (dominance does not depend
// on axis order); nil means the full space.
func sameDims(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	seen := make(map[int]bool, len(a))
	for _, d := range a {
		seen[d] = true
	}
	for _, d := range b {
		if !seen[d] {
			return false
		}
	}
	return true
}

// Query answers one skyline query, routed by opts.Mode: ModeProtocol
// runs a full round on the underlying cluster; ModeMaterialized serves
// a sorted-prefix read (refreshing first when stale, erring with
// ErrUncovered when the materialization cannot answer); ModeAuto — the
// recommended serving mode — serves when covered, and falls back to a
// protocol round when not, resumed from the materialization where it
// can be (resume). Report.Source records which path ran. A resumed read
// holds off updates while it runs, so its OnResult and OnEvent callbacks
// must not call back into the Server.
func (s *Server) Query(ctx context.Context, opts Options) (*Report, error) {
	if ctx == nil {
		return nil, ErrNilContext
	}
	opts = opts.withDefaults()
	if err := opts.Validate(s.cluster.dims); err != nil {
		return nil, err
	}
	if opts.Mode == ModeProtocol {
		return s.protocol(ctx, opts)
	}
	if !s.covers(opts) {
		if opts.Mode == ModeAuto {
			s.miss()
			return s.resume(ctx, opts)
		}
		return nil, fmt.Errorf("%w: threshold %v / subspace %v against floor %v / subspace %v",
			ErrUncovered, opts.Threshold, opts.Dims, s.maint.store.Floor(), s.opts.Dims)
	}
	if opts.Logger == nil {
		opts.Logger = s.cluster.logger
	}
	start := time.Now()
	qid := s.cluster.nextSession()
	opts.Trace.begin(start, qid)
	defer opts.Trace.finish()
	o := observer{c: s.cluster, opts: &opts, qid: qid, start: start}

	source := SourceMaterialized
	if s.maint.store.Fresh(start, s.maxStale) {
		s.hit()
	} else {
		// Stale: every concurrent compatible query shares one refresh
		// round. The executor's context drives the round; joiners wait
		// for it and then read the same replaced store.
		s.miss()
		if err := s.Refresh(ctx); err != nil {
			return o.finish(nil, err)
		}
		source = SourceRefreshed
	}
	rep, err := o.finish(s.servePrefix(&o, source), nil)
	s.window.Observe(rep.Elapsed)
	return rep, err
}

// QueryWithStats is Query plus a populated QueryStats (attaching a
// private trace when opts.Trace is nil, exactly like the cluster
// method).
func (s *Server) QueryWithStats(ctx context.Context, opts Options) (*Report, *QueryStats, error) {
	return withStats(opts, func(opts Options) (*Report, error) { return s.Query(ctx, opts) })
}

// protocol runs a full round on the underlying cluster.
func (s *Server) protocol(ctx context.Context, opts Options) (*Report, error) {
	opts.Mode = ModeProtocol
	return Run(ctx, s.cluster, opts)
}

// resume answers an uncovered ModeAuto read. When the read is uncovered
// only because its threshold lies below the floor — same subspace as a
// set, DSUD or e-DSUD, neither TopK nor MaxResults, not forced to record
// — and the store is valid and fresh, the round resumes from the store:
// it reports the store's members at once and runs only over the band
// below the floor (round.Options.Known). The read side of mu keeps every
// update out from the snapshot to the end of the round, so the members
// and the sites' data stay one state. Otherwise the read runs a full
// round; an invalid or stale store never triggers a refresh here.
func (s *Server) resume(ctx context.Context, opts Options) (*Report, error) {
	if !sameDims(opts.Dims, s.opts.Dims) || opts.Algorithm == Baseline || opts.TopK > 0 || opts.MaxResults > 0 || opts.Record {
		return s.protocol(ctx, opts)
	}
	s.mu.RLock()
	if !s.maint.store.Fresh(time.Now(), s.maxStale) {
		s.mu.RUnlock()
		return s.protocol(ctx, opts)
	}
	defer s.mu.RUnlock()
	opts.Mode = ModeProtocol
	return run(ctx, s.cluster, opts, s.maint.store.Entries())
}

// refreshRound is the singleflight body: one full protocol round
// through the maintainer, which replaces the store wholesale (clearing
// any invalidation).
func (s *Server) refreshRound(ctx context.Context) error {
	s.refreshes.Add(1)
	s.cRefreshes.Inc()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maint.Refresh(ctx)
}

// servePrefix is the materialized read: one sorted-prefix scan of the
// store, delivered progressively in report order through the same
// observer a protocol round reports to, as one synthetic server-delivery
// phase (so results carry delivery ordinals, home sites and
// PhaseServerDelivery). The report carries zero Bandwidth — no protocol
// traffic ran for this query — and Source records how the answer was
// produced.
func (s *Server) servePrefix(o *observer, source Source) *Report {
	opts := o.opts
	entries, _ := s.maint.store.Prefix(opts.Threshold)
	limit := len(entries)
	// The store is sorted by descending probability, so both result
	// limits are exact head truncations.
	if opts.TopK > 0 && opts.TopK < limit {
		limit = opts.TopK
	}
	if opts.MaxResults > 0 && opts.MaxResults < limit {
		limit = opts.MaxResults
	}
	rep := &Report{Source: source}
	rep.Skyline = make([]uncertain.SkylineMember, 0, limit)
	rep.Sites = make(map[uncertain.TupleID]int, limit)
	o.points = make([]ProgressPoint, 0, limit)
	o.step(round.Step{Kind: round.StepBegin, Phase: PhaseServerDelivery})
	for _, e := range entries[:limit] {
		rep.Skyline = append(rep.Skyline, e.Member)
		rep.Sites[e.Member.Tuple.ID] = e.Site
		o.step(round.Step{Phase: PhaseServerDelivery, Event: Event{
			Kind: EventReport, Site: e.Site, Tuple: e.Member.Tuple, Prob: e.Member.Prob,
		}})
	}
	o.step(round.Step{Kind: round.StepEnd, Phase: PhaseServerDelivery})
	return rep
}

func (s *Server) hit() {
	s.hits.Add(1)
	s.cHits.Inc()
}

func (s *Server) miss() {
	s.misses.Add(1)
	s.cMisses.Inc()
}

// Insert routes one insert through the serving tier's maintainer, which
// repositions the affected tuples in the store (§5.4). Updates serialise;
// reads proceed concurrently against the previous version until the
// update lands. An update that fails after a site may have applied it
// invalidates the store, so covered reads — and the next update — refresh
// rather than serve the answer it changed.
func (s *Server) Insert(ctx context.Context, home int, tu uncertain.Tuple) error {
	return s.update(ctx, s.maint.Insert, home, tu)
}

// Delete routes one delete through the serving tier's maintainer; see
// Insert.
func (s *Server) Delete(ctx context.Context, home int, tu uncertain.Tuple) error {
	return s.update(ctx, s.maint.Delete, home, tu)
}

func (s *Server) update(ctx context.Context, apply func(context.Context, int, uncertain.Tuple) error, home int, tu uncertain.Tuple) error {
	if ctx == nil {
		return ErrNilContext
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return apply(ctx, home, tu)
}

// Refresh forces a full protocol round and replaces the
// materialization, coalescing with any in-flight refresh.
func (s *Server) Refresh(ctx context.Context) error {
	if ctx == nil {
		return ErrNilContext
	}
	err, shared := s.group.Do(s.key, func() error { return s.refreshRound(ctx) })
	if shared {
		s.coalesced.Add(1)
		s.cCoalesced.Inc()
	}
	return err
}

// Invalidate marks the materialization stale: the next materialized
// read triggers (or joins) a refresh round, and the next update refreshes
// before it applies. Use it when sites changed out-of-band.
func (s *Server) Invalidate() { s.maint.store.Invalidate() }

// InstrumentUpdates registers the maintainer's dsud_update_* metrics
// for the serving tier's update path (nil-safe).
func (s *Server) InstrumentUpdates(reg *obs.Registry) { s.maint.Instrument(reg) }

// SetUpdateLatencyWindow attaches a rotating latency window to the
// serving tier's update path.
func (s *Server) SetUpdateLatencyWindow(w *obs.Window) { s.maint.SetLatencyWindow(w) }

// Skyline returns the current materialized answer at the floor
// threshold, in report order.
func (s *Server) Skyline() []uncertain.SkylineMember { return s.maint.Skyline() }

// Cluster returns the underlying cluster.
func (s *Server) Cluster() *Cluster { return s.cluster }

// ServeStats is one consistent-enough snapshot of the serving tier's
// counters and store state (counters are read individually; exactness
// across them is not guaranteed under load).
type ServeStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Refreshes int64 `json:"refreshes"`
	Coalesced int64 `json:"coalesced"`

	Entries      int           `json:"entries"`
	Version      uint64        `json:"version"`
	Floor        float64       `json:"floor"`
	MaxStaleness time.Duration `json:"max_staleness"`
	LastRefresh  time.Time     `json:"last_refresh"`
	Fresh        bool          `json:"fresh"`
}

// Stats snapshots the serving counters and store state.
func (s *Server) Stats() ServeStats {
	return ServeStats{
		Hits:         s.hits.Load(),
		Misses:       s.misses.Load(),
		Refreshes:    s.refreshes.Load(),
		Coalesced:    s.coalesced.Load(),
		Entries:      s.maint.store.Len(),
		Version:      s.maint.store.Version(),
		Floor:        s.maint.store.Floor(),
		MaxStaleness: s.maxStale,
		LastRefresh:  s.maint.store.LastRefresh(),
		Fresh:        s.maint.store.Fresh(time.Now(), s.maxStale),
	}
}

// Handler serves the /servez debug document: the serving counters,
// store state and serve-latency quantiles, as JSON.
func (s *Server) Handler() http.Handler {
	type latency struct {
		P50  time.Duration `json:"p50"`
		P95  time.Duration `json:"p95"`
		P99  time.Duration `json:"p99"`
		Rate float64       `json:"rate_per_sec"`
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st := s.Stats()
		snap := s.window.Snapshot()
		doc := struct {
			ServeStats
			AgeMS   int64   `json:"age_ms"`
			Latency latency `json:"latency"`
		}{
			ServeStats: st,
			AgeMS:      time.Since(st.LastRefresh).Milliseconds(),
			Latency: latency{
				P50:  snap.Quantile(0.50),
				P95:  snap.Quantile(0.95),
				P99:  snap.Quantile(0.99),
				Rate: snap.Rate(),
			},
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(doc)
	})
}
