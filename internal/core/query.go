package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/codec"
	"repro/internal/obs"
	"repro/internal/obs/progress"
	"repro/internal/obs/transcript"
	"repro/internal/prtree"
	"repro/internal/transport"
	"repro/internal/uncertain"
)

// Run executes one distributed skyline query against the cluster and
// returns the full report. Qualified tuples are additionally delivered
// through opts.OnResult as they are discovered (progressiveness).
func Run(ctx context.Context, c *Cluster, opts Options) (*Report, error) {
	if ctx == nil {
		return nil, ErrNilContext
	}
	if c.Sites() == 0 {
		return nil, ErrNoSites
	}
	opts = opts.withDefaults()
	if err := opts.Validate(c.dims); err != nil {
		return nil, err
	}
	if opts.Mode != ModeProtocol {
		// The protocol path serves ModeProtocol only; the materialized
		// modes need the serving tier's store and coalescing state.
		return nil, fmt.Errorf("%w: mode %v", ErrNoServer, opts.Mode)
	}
	if opts.Logger == nil {
		opts.Logger = c.logger // cluster-wide default (ClusterConfig.Logger)
	}
	start := time.Now()
	sid := c.nextSession()
	// When profiling (obs.SetProfiling), attribute samples on the
	// coordinator goroutine — and everything broadcast spawns — to
	// (algorithm, phase, query_id). Nil and free otherwise.
	labels := newProfLabels(ctx, opts.Algorithm, sid)
	defer labels.exit()
	opts.Trace.begin(start)
	defer opts.Trace.finish()
	v := c.newView(opts.Trace)

	// Black-box recording: when the transcript sink samples this query
	// (or Options.Record forces it), stack the capture tap over the view
	// so every RPC from here on lands in the transcript. Unrecorded
	// queries never take this branch — the sampling decision is the
	// whole cost of the feature on the unsampled path.
	var (
		recorder *transcript.Recorder
		tHeader  *codec.TranscriptHeader
	)
	if c.transcripts.ShouldRecord(opts.Record) {
		tHeader = transcriptHeader(&opts, sid, start, len(c.clients), c.dims)
		recorder = transcript.NewRecorder(tHeader, start)
		v.recordWith(recorder)
	}

	var (
		rep   *Report
		err   error
		curve progress.Builder // per-delivery observations are alloc-free
	)
	switch opts.Algorithm {
	case Baseline:
		rep, err = runBaseline(ctx, v, opts, start, labels, &curve)
	case DSUD:
		rep, err = runDSUD(ctx, v, opts, false, start, sid, labels, &curve)
	case EDSUD:
		rep, err = runDSUD(ctx, v, opts, true, start, sid, labels, &curve)
	}
	if err != nil {
		elapsed := time.Since(start)
		opts.logQuery(nil, err, elapsed)
		c.recordFlight(opts, sid, nil, err, start, elapsed)
		if recorder != nil {
			// Seal what was captured with no summary frame: a truncated
			// transcript still shows how far the exchange got.
			c.transcripts.Finish(recorder, tHeader, nil, err)
		}
		return nil, err
	}
	c.countQuery(opts.Algorithm)
	uncertain.SortMembers(rep.Skyline)
	if opts.TopK > 0 && len(rep.Skyline) > opts.TopK {
		rep.Skyline = rep.Skyline[:opts.TopK]
	}
	// The TCP transport attributes wire bytes per request, so the
	// per-query meter is exact even under overlapping queries; in-process
	// sites put nothing on a wire.
	rep.Bandwidth = v.meter.Snapshot()
	rep.Elapsed = time.Since(start)
	rep.Source = SourceProtocol
	d := &progress.Digest{
		QueryID:   opts.Trace.ID(),
		Algorithm: opts.Algorithm.String(),
		Threshold: opts.Threshold,
		Start:     start.UnixNano(),
		Slow:      opts.SlowQuery > 0 && rep.Elapsed >= opts.SlowQuery,
		Sites:     int32(len(c.clients)),
	}
	curve.Finish(d, rep.Elapsed, rep.Bandwidth.Tuples())
	rep.Curve = d
	c.progress.Record(d)
	c.winQuery.Observe(rep.Elapsed)
	if opts.Trace != nil {
		if ttf := opts.Trace.Summary().TimeToFirst(); ttf > 0 {
			c.winFirst.Observe(ttf)
		}
	}
	opts.logQuery(rep, nil, rep.Elapsed)
	c.recordFlight(opts, sid, rep, nil, start, rep.Elapsed)
	if recorder != nil {
		c.transcripts.Finish(recorder, tHeader, transcriptSummary(rep), nil)
	}
	return rep, nil
}

// logQuery emits the query's structured log record: Error on failure,
// Warn with the per-phase breakdown when the query crossed the
// SlowQuery threshold, Info otherwise. query_id matches the trace
// context on every RPC and the sites' request logs. No-op without a
// logger.
func (o Options) logQuery(rep *Report, err error, elapsed time.Duration) {
	if o.Logger == nil {
		return
	}
	qid := obs.QueryID(o.Trace.ID())
	if err != nil {
		o.Logger.Error("query failed",
			"query_id", qid, "algorithm", o.Algorithm.String(),
			"threshold", o.Threshold, "dur", elapsed, "err", err)
		return
	}
	if o.SlowQuery > 0 && elapsed >= o.SlowQuery {
		args := []any{
			"query_id", qid, "algorithm", o.Algorithm.String(),
			"threshold", o.Threshold, "dur", elapsed, "slow_threshold", o.SlowQuery,
			"skyline", len(rep.Skyline), "iterations", rep.Iterations,
			"tuples", rep.Bandwidth.Tuples(), "bytes", rep.Bandwidth.Bytes,
		}
		sum := o.Trace.Summary()
		for _, p := range Phases() {
			args = append(args, "phase_"+p.String(), sum.Phases[p].Total)
		}
		o.Logger.Warn("slow query", args...)
		return
	}
	o.Logger.Info("query done",
		"query_id", qid, "algorithm", o.Algorithm.String(),
		"threshold", o.Threshold, "dur", elapsed,
		"skyline", len(rep.Skyline), "iterations", rep.Iterations,
		"tuples", rep.Bandwidth.Tuples(), "bytes", rep.Bandwidth.Bytes)
}

// runBaseline ships every partition to the coordinator and solves eq. 5
// centrally over a bulk-loaded PR-tree.
func runBaseline(ctx context.Context, c *view, opts Options, start time.Time, labels *profLabels, curve *progress.Builder) (*Report, error) {
	labels.enter(PhaseToServer)
	sp := opts.Trace.StartSpan(PhaseToServer)
	resps, err := c.broadcast(ctx, -1, &transport.Request{Kind: transport.KindShipAll})
	sp.End()
	if err != nil {
		return nil, err
	}
	// The central solve is the baseline's analogue of local pruning.
	labels.enter(PhaseLocalPruning)
	var union uncertain.DB
	sites := make(map[uncertain.TupleID]int)
	for i, resp := range resps {
		for _, rep := range resp.Tuples {
			union = append(union, rep.Tuple)
			sites[rep.Tuple.ID] = i
		}
	}
	index := prtree.Bulk(union, c.dims, 0)
	rep := &Report{Sites: make(map[uncertain.TupleID]int), PerSite: make([]SiteTally, len(c.clients))}
	for i, resp := range resps {
		rep.PerSite[i].Shipped = int64(len(resp.Tuples))
	}
	index.LocalSkylineFunc(opts.Threshold, opts.Dims, func(m uncertain.SkylineMember) bool {
		rep.Skyline = append(rep.Skyline, m)
		rep.Sites[m.Tuple.ID] = sites[m.Tuple.ID]
		opts.emit(Event{Kind: EventReport, Site: sites[m.Tuple.ID], Tuple: m.Tuple, Prob: m.Prob})
		pp := ProgressPoint{
			Reported: len(rep.Skyline),
			Tuples:   c.meter.Snapshot().Tuples(),
			Elapsed:  time.Since(start),
		}
		rep.Progress = append(rep.Progress, pp)
		curve.Observe(sites[m.Tuple.ID], pp.Elapsed, pp.Tuples)
		if opts.OnResult != nil {
			opts.OnResult(Result{
				Tuple: m.Tuple, GlobalProb: m.Prob, Site: sites[m.Tuple.ID],
				Index: len(rep.Skyline), Phase: PhaseLocalPruning,
			})
		}
		if opts.MaxResults > 0 && len(rep.Skyline) >= opts.MaxResults {
			return false
		}
		return ctx.Err() == nil
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return rep, nil
}

// queued is one coordinator-side candidate: a site's current
// representative, annotated with the Corollary-2 upper bound on its global
// skyline probability (for DSUD the bound simply mirrors the local
// probability, so both algorithms share one selection loop).
type queued struct {
	site  int
	rep   transport.Representative
	bound float64
}

// runDSUD executes the iterative protocol of §5. With enhanced=false the
// feedback is the queue head by local skyline probability (DSUD); with
// enhanced=true the Corollary-2 approximate bounds drive both the feedback
// selection and the expunge-without-broadcast rule (e-DSUD).
func runDSUD(ctx context.Context, c *view, opts Options, enhanced bool, start time.Time, sid uint64, labels *profLabels, curve *progress.Builder) (*Report, error) {
	rep := &Report{Sites: make(map[uncertain.TupleID]int), PerSite: make([]SiteTally, len(c.clients))}
	query := transport.Query{
		Threshold: opts.Threshold,
		Dims:      opts.Dims,
		NoPrune:   opts.DisableSitePruning,
	}
	// Release the per-site session state when the query ends, whatever
	// the path out; a lost end-query only costs site memory until the
	// session cap evicts it, so failures are ignored.
	defer func() {
		cleanup, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		c.broadcast(cleanup, -1, &transport.Request{Kind: transport.KindEndQuery, Session: sid})
	}()

	// To-Server phase, first iteration: every site initialises and ships
	// its first representative (§4 step 1).
	labels.enter(PhaseToServer)
	sp := opts.Trace.StartSpan(PhaseToServer)
	resps, err := c.broadcast(ctx, -1, &transport.Request{Kind: transport.KindInit, Query: query, Session: sid})
	sp.End()
	if err != nil {
		return nil, err
	}
	var queue []queued
	for i, resp := range resps {
		if !resp.Exhausted {
			// bound starts at the Corollary-1 value (the local skyline
			// probability); recomputeBounds tightens it for e-DSUD.
			queue = append(queue, queued{site: i, rep: resp.Rep, bound: resp.Rep.LocalProb})
			rep.PerSite[i].Shipped++
			opts.emit(Event{Kind: EventToServer, Site: i, Tuple: resp.Rep.Tuple, Prob: resp.Rep.LocalProb})
		}
	}

	// refill asks site i for its next representative and enqueues it
	// (the To-Server phase of later iterations).
	refill := func(i int) error {
		labels.enter(PhaseToServer)
		sp := opts.Trace.StartSpan(PhaseToServer)
		defer sp.End()
		resp, err := c.call(ctx, i, &transport.Request{Kind: transport.KindNext, Session: sid})
		if err != nil {
			return err
		}
		rep.Refills++
		if resp.Exhausted {
			opts.emit(Event{Kind: EventRefill, Iteration: rep.Iterations, Site: i, Count: 0})
			return nil
		}
		opts.emit(Event{
			Kind: EventRefill, Iteration: rep.Iterations,
			Site: i, Tuple: resp.Rep.Tuple, Prob: resp.Rep.LocalProb, Count: 1,
		})
		queue = append(queue, queued{site: i, rep: resp.Rep, bound: resp.Rep.LocalProb})
		rep.PerSite[i].Shipped++
		opts.emit(Event{
			Kind: EventToServer, Iteration: rep.Iterations,
			Site: i, Tuple: resp.Rep.Tuple, Prob: resp.Rep.LocalProb,
		})
		return nil
	}

	// Top-k mode keeps the K best confirmed answers; the working
	// threshold rises to the K-th best probability, which both tightens
	// the expunge rule and triggers early termination.
	working := opts.Threshold
	kthBest := func() float64 {
		if opts.TopK <= 0 || len(rep.Skyline) < opts.TopK {
			return opts.Threshold
		}
		uncertain.SortMembers(rep.Skyline)
		kth := rep.Skyline[opts.TopK-1].Prob
		if kth < opts.Threshold {
			return opts.Threshold
		}
		return kth
	}

	lastSite := -1
	for len(queue) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rep.Iterations++
		labels.enter(PhaseFeedbackSelect)
		sel := opts.Trace.StartSpan(PhaseFeedbackSelect)
		recomputeBounds(queue, enhanced, opts.Dims)
		working = kthBest()

		if enhanced && !opts.DisableExpunge {
			// Expunge phase: candidates whose global upper bound cannot
			// reach q are dropped without any broadcast; their home sites
			// immediately refill (§5.2).
			for {
				dropped := false
				for k := 0; k < len(queue); {
					if queue[k].bound < working {
						victim := queue[k]
						queue = append(queue[:k], queue[k+1:]...)
						rep.Expunged++
						opts.emit(Event{
							Kind: EventExpunge, Iteration: rep.Iterations,
							Site: victim.site, Tuple: victim.rep.Tuple, Prob: victim.bound,
						})
						// The refill is To-Server work; keep it out of the
						// selection phase's clock.
						sel.Pause()
						err := refill(victim.site)
						sel.Resume()
						labels.enter(PhaseFeedbackSelect)
						if err != nil {
							return nil, err
						}
						dropped = true
					} else {
						k++
					}
				}
				if !dropped {
					break
				}
				recomputeBounds(queue, enhanced, opts.Dims)
			}
			if len(queue) == 0 {
				sel.End()
				break
			}
		}

		// Select the feedback. By default the queue maximum by bound (for
		// DSUD the bound is the local skyline probability, exactly §5.1's
		// rule); the ablation policies override the criterion.
		best := selectFeedback(queue, opts.Policy, lastSite)
		head := queue[best]
		lastSite = head.site
		queue = append(queue[:best], queue[best+1:]...)
		sel.End()

		// Corollary 1 termination for DSUD: every unseen tuple's global
		// probability is bounded by the head's local probability.
		if !enhanced && head.rep.LocalProb < working {
			break
		}
		// Top-k early termination: when even the best remaining bound
		// cannot displace the current K-th answer, the top-k is final.
		if opts.TopK > 0 && len(rep.Skyline) >= opts.TopK && head.bound < working {
			break
		}
		opts.emit(Event{
			Kind: EventFeedbackSelect, Iteration: rep.Iterations,
			Site: head.site, Tuple: head.rep.Tuple, Prob: head.bound,
		})

		// Server-Delivery phase: broadcast the feedback to the other
		// sites, collect eq. 9 factors (Lemma 1) and prune remotely.
		feed := transport.Feedback{Tuple: head.rep.Tuple, HomeLocalProb: head.rep.LocalProb}
		labels.enter(PhaseServerDelivery)
		sd := opts.Trace.StartSpan(PhaseServerDelivery)
		evals, err := c.broadcast(ctx, head.site, &transport.Request{
			Kind: transport.KindEvaluate, Feed: feed, Session: sid,
		})
		sd.End()
		if err != nil {
			return nil, err
		}
		rep.Broadcasts++
		rep.FeedbackLocal = append(rep.FeedbackLocal, head.rep.LocalProb)
		opts.emit(Event{
			Kind: EventBroadcast, Iteration: rep.Iterations,
			Site: head.site, Tuple: head.rep.Tuple, Prob: head.rep.LocalProb,
		})
		// Local-Pruning phase, coordinator side: fold the sites' eq. 9
		// factors and prune counts into the verdict.
		labels.enter(PhaseLocalPruning)
		lp := opts.Trace.StartSpan(PhaseLocalPruning)
		global := head.rep.LocalProb
		prunedNow := 0
		for i, resp := range evals {
			if i == head.site || resp == nil {
				continue
			}
			global *= resp.CrossProb
			prunedNow += resp.Pruned
			if resp.SessionPruned > 0 {
				// New sites report their session-cumulative prune count,
				// which is exact even when a retried Evaluate replays its
				// delta; legacy sites (SessionPruned 0) fall back to
				// delta accumulation.
				rep.PerSite[i].Pruned = int64(resp.SessionPruned)
			} else {
				rep.PerSite[i].Pruned += int64(resp.Pruned)
			}
		}
		rep.PrunedLocal += prunedNow
		if prunedNow > 0 {
			opts.emit(Event{Kind: EventPrune, Iteration: rep.Iterations, Site: -1, Count: prunedNow})
		}
		if global >= opts.Threshold {
			opts.emit(Event{
				Kind: EventReport, Iteration: rep.Iterations,
				Site: head.site, Tuple: head.rep.Tuple, Prob: global,
			})
			rep.Skyline = append(rep.Skyline, uncertain.SkylineMember{Tuple: head.rep.Tuple, Prob: global})
			rep.Sites[head.rep.Tuple.ID] = head.site
			pp := ProgressPoint{
				Reported: len(rep.Skyline),
				Tuples:   c.meter.Snapshot().Tuples(),
				Elapsed:  time.Since(start),
			}
			rep.Progress = append(rep.Progress, pp)
			curve.Observe(head.site, pp.Elapsed, pp.Tuples)
			if opts.OnResult != nil {
				opts.OnResult(Result{
					Tuple: head.rep.Tuple, GlobalProb: global, Site: head.site,
					Index: len(rep.Skyline), Phase: PhaseLocalPruning, Iteration: rep.Iterations,
					Broadcasts: rep.Broadcasts, Expunged: rep.Expunged,
					Refills: rep.Refills, PrunedLocal: rep.PrunedLocal,
				})
			}
			if opts.MaxResults > 0 && len(rep.Skyline) >= opts.MaxResults {
				lp.End()
				return rep, nil
			}
		} else {
			opts.emit(Event{
				Kind: EventReject, Iteration: rep.Iterations,
				Site: head.site, Tuple: head.rep.Tuple, Prob: global,
			})
		}
		lp.End()
		// The home site ships its next representative (To-Server phase of
		// the following iteration).
		if err := refill(head.site); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// recomputeBounds refreshes each queued candidate's upper bound. For DSUD
// the bound is Corollary 1 (the local skyline probability). For e-DSUD it
// is Corollary 2: the local probability multiplied, for every *other* site
// whose queued representative dominates the candidate, by that
// representative's Observation-2 factor P_sky(t, D_x)/P(t) × (1 − P(t)).
func recomputeBounds(queue []queued, enhanced bool, dims []int) {
	for k := range queue {
		queue[k].bound = queue[k].rep.LocalProb
	}
	if !enhanced {
		return
	}
	for k := range queue {
		s := &queue[k]
		for j := range queue {
			t := &queue[j]
			if t.site == s.site {
				continue
			}
			if t.rep.Tuple.Dominates(s.rep.Tuple, dims) {
				s.bound *= t.rep.LocalProb / t.rep.Tuple.Prob * (1 - t.rep.Tuple.Prob)
			}
		}
	}
}

// selectFeedback returns the queue index to broadcast next under the
// given policy. lastSite is the previously selected site (for the
// round-robin control).
func selectFeedback(queue []queued, policy FeedbackPolicy, lastSite int) int {
	switch policy {
	case PolicyRoundRobin:
		// The smallest site index strictly greater than lastSite, cycling.
		best := -1
		for k := range queue {
			if queue[k].site > lastSite && (best == -1 || queue[k].site < queue[best].site) {
				best = k
			}
		}
		if best >= 0 {
			return best
		}
		best = 0
		for k := 1; k < len(queue); k++ {
			if queue[k].site < queue[best].site {
				best = k
			}
		}
		return best
	default: // PolicyAlgorithm: the largest bound wins
		best := 0
		for k := 1; k < len(queue); k++ {
			if queue[k].bound > queue[best].bound {
				best = k
			}
		}
		return best
	}
}
