package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/obs/progress"
	"repro/internal/round"
	"repro/internal/serve"
	"repro/internal/uncertain"
)

// This file is the coordinator-side materialized serving tier: the
// Server's answer is a sorted index (internal/serve) that its updates
// (updates.go) edit in place, and reads of it are O(answer) sorted-prefix
// scans instead of protocol rounds. See docs/SERVING.md.

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
	// Replicate pushes SKY(H) replicas to the sites and keeps them in
	// sync through every update, letting sites veto hopeless insert
	// evaluations.
	Replicate bool
}

// Server answers skyline queries from a materialized global skyline,
// keeps it current under inserts and deletes (§5.4), and refreshes it
// with (coalesced) protocol rounds only when the store was invalidated.
// Build one with Cluster.Serve. When its cluster has a registry
// (ClusterConfig.Metrics), the Server registers there the serving
// counters (dsud_serve_{hits,misses,refreshes,coalesced}_total), store
// gauges (dsud_serve_{entries,version,floor,fresh,age_seconds}) and
// serve-latency quantiles, and the update path's dsud_update_*
// counters and its dsud_update_latency_seconds window. Safe for
// concurrent use: covered reads share an RLock on the store; updates and
// refreshes hold mu's write side, and every protocol round holds its read
// side, so that no update lands under a round.
type Server struct {
	cluster *Cluster
	opts    Options     // materialization options (Threshold = floor)
	window  *obs.Window // one observation per served read, over a minute
	key     string      // coalescing key: one refresh per floor

	// mu serialises updates and refreshes (write side) against protocol
	// rounds (read side), which run concurrently with each other. It
	// guards the update path's state: the store, which is the answer every
	// covered read serves (invalid after a failed update until a refresh),
	// the update view and whether the sites hold replicas.
	mu         sync.RWMutex
	store      *serve.Store
	view       *view
	replicated bool
	instr      *maintInstr // nil without ClusterConfig.Metrics

	group     serve.Group
	hits      atomic.Int64
	misses    atomic.Int64
	refreshes atomic.Int64
	coalesced atomic.Int64

	cHits, cMisses, cRefreshes, cCoalesced *obs.Counter
}

// Serve materializes the global skyline at cfg.Floor with one protocol
// round and returns the serving tier over it: route updates through
// Server.Insert/Delete and the materialization stays exact; if updates
// bypass the server, call Invalidate so reads re-converge via a refresh
// round. The Baseline algorithm is rejected: maintenance relies on the
// per-site query state that only the DSUD-family protocols establish.
func (c *Cluster) Serve(ctx context.Context, cfg ServeConfig) (*Server, error) {
	if ctx == nil {
		return nil, ErrNilContext
	}
	mopts := Options{Threshold: cfg.Floor, Dims: cfg.Dims, Algorithm: cfg.Algorithm}.withDefaults()
	if err := mopts.Validate(c.dims); err != nil {
		return nil, fmt.Errorf("core: serve config: %w", err)
	}
	if mopts.Algorithm == Baseline {
		return nil, fmt.Errorf("%w: serving requires DSUD or EDSUD, not %v", ErrAlgorithm, mopts.Algorithm)
	}
	s := &Server{
		cluster: c,
		opts:    mopts,
		window:  obs.NewWindow(time.Minute),
		key:     fmt.Sprintf("refresh@%g", cfg.Floor),
		store:   serve.New(mopts.Threshold),
		view:    c.newView(nil, 0, msg.Query{Threshold: mopts.Threshold, Dims: mopts.Dims}),
		instr:   newMaintInstr(c.reg),
	}
	if err := s.refresh(ctx); err != nil {
		return nil, err
	}
	if cfg.Replicate {
		if err := s.replicate(ctx); err != nil {
			return nil, err
		}
	}
	s.instrument(c.reg)
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
		"dsud_serve_floor", "Materialization floor threshold: reads at or above it are covered.",
		"dsud_serve_fresh", "1 while the materialized answer is valid, 0 after a failed update or Invalidate until a refresh.",
		"dsud_serve_age_seconds", "Seconds since the materialized answer was last rebuilt by a protocol round.",
	)
	s.cHits = reg.Counter("dsud_serve_hits_total")
	s.cMisses = reg.Counter("dsud_serve_misses_total")
	s.cRefreshes = reg.Counter("dsud_serve_refreshes_total")
	s.cCoalesced = reg.Counter("dsud_serve_coalesced_total")
	reg.GaugeFunc("dsud_serve_entries", func() float64 { return float64(s.store.Len()) })
	reg.GaugeFunc("dsud_serve_version", func() float64 { return float64(s.store.Version()) })
	reg.GaugeFunc("dsud_serve_floor", s.store.Floor)
	reg.GaugeFunc("dsud_serve_fresh", func() float64 {
		if s.store.Valid() {
			return 1
		}
		return 0
	})
	reg.GaugeFunc("dsud_serve_age_seconds", func() float64 { return time.Since(s.store.LastRefresh()).Seconds() })
	obs.ExposeWindow(reg, "dsud_serve_latency", s.window)
}

// covers reports whether the materialization can answer opts exactly:
// same subspace, threshold at or above the floor.
func (s *Server) covers(opts Options) bool {
	return s.store.Covers(opts.Threshold) && sameDims(opts.Dims, s.opts.Dims)
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
// a sorted-prefix read (refreshing first when invalidated, erring with
// ErrUncovered when the materialization cannot answer); ModeAuto — the
// recommended serving mode — serves when covered, and falls back to a
// protocol round when not, resumed from the materialization where it
// can be (protocol). Report.Source records which path ran. A protocol
// round, resumed or not, holds off updates while it runs, so its OnResult
// and OnEvent callbacks must not call back into the Server.
func (s *Server) Query(ctx context.Context, opts Options) (*Report, error) {
	if ctx == nil {
		return nil, ErrNilContext
	}
	opts = opts.withDefaults()
	if err := opts.Validate(s.cluster.dims); err != nil {
		return nil, err
	}
	if opts.Mode == ModeProtocol {
		return s.protocol(ctx, opts, false)
	}
	if !s.covers(opts) {
		if opts.Mode == ModeAuto {
			s.miss()
			return s.protocol(ctx, opts, true)
		}
		return nil, fmt.Errorf("%w: threshold %v / subspace %v against floor %v / subspace %v",
			ErrUncovered, opts.Threshold, opts.Dims, s.store.Floor(), s.opts.Dims)
	}
	start := time.Now()
	qid := s.cluster.nextSession()
	opts.Trace.begin(start)
	defer opts.Trace.finish()
	o := observer{c: s.cluster, opts: &opts, qid: qid, start: start}

	source := SourceMaterialized
	if s.store.Valid() {
		s.hit()
	} else {
		// Invalidated: every concurrent compatible query shares one refresh
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

// protocol runs a round on the underlying cluster under the read side of
// mu, which keeps every update out to the end of the round: the sites'
// data, and a store the round resumes from, stay one state. With resume
// (an uncovered ModeAuto read) the round resumes from the store when the
// read is uncovered only because its threshold lies below the floor —
// same subspace as a set, DSUD or e-DSUD, neither TopK nor MaxResults,
// not asked to record — and the store is valid: it reports the store's
// members at once and runs only over the band below the floor
// (round.Options.Known). Otherwise it runs a full round; an invalid store
// never triggers a refresh here.
func (s *Server) protocol(ctx context.Context, opts Options, resume bool) (*Report, error) {
	opts.Mode = ModeProtocol
	resume = resume && sameDims(opts.Dims, s.opts.Dims) && opts.Algorithm != Baseline &&
		opts.TopK == 0 && opts.MaxResults == 0 && !opts.Record
	s.mu.RLock()
	defer s.mu.RUnlock()
	var known []serve.Entry
	if resume && s.store.Valid() {
		known = s.store.Entries()
	}
	return run(ctx, s.cluster, opts, known)
}

// refreshRound is the singleflight body: one full protocol round, which
// replaces the store wholesale (clearing any invalidation).
func (s *Server) refreshRound(ctx context.Context) error {
	s.refreshes.Add(1)
	s.cRefreshes.Inc()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.refresh(ctx)
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
	entries, _ := s.store.Prefix(opts.Threshold)
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
	o.points = make([]progress.Point, 0, limit)
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
func (s *Server) Invalidate() { s.store.Invalidate() }

// Skyline returns the current materialized answer at the floor
// threshold, in report order.
func (s *Server) Skyline() []uncertain.SkylineMember {
	entries, _ := s.store.Prefix(s.store.Floor())
	members := make([]uncertain.SkylineMember, len(entries))
	for i, e := range entries {
		members[i] = e.Member
	}
	return members
}

// Cluster returns the underlying cluster.
func (s *Server) Cluster() *Cluster { return s.cluster }

// ServeStats is one consistent-enough snapshot of the serving tier's
// counters and store state (counters are read individually; exactness
// across them is not guaranteed under load). The same figures are the
// dsud_serve_* series on the cluster's registry.
type ServeStats struct {
	Hits      int64
	Misses    int64
	Refreshes int64
	Coalesced int64

	Entries     int
	Version     uint64
	Floor       float64
	LastRefresh time.Time
	Fresh       bool
}

// Stats snapshots the serving counters and store state.
func (s *Server) Stats() ServeStats {
	return ServeStats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Refreshes:   s.refreshes.Load(),
		Coalesced:   s.coalesced.Load(),
		Entries:     s.store.Len(),
		Version:     s.store.Version(),
		Floor:       s.store.Floor(),
		LastRefresh: s.store.LastRefresh(),
		Fresh:       s.store.Valid(),
	}
}
