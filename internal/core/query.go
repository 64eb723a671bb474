package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/codec"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/obs/progress"
	"repro/internal/obs/transcript"
	"repro/internal/round"
	"repro/internal/serve"
	"repro/internal/transport"
)

// Run executes one distributed skyline query against the cluster and
// returns the full report. Qualified tuples are additionally delivered
// through opts.OnResult as they are discovered (progressiveness). The
// algorithm itself is internal/round; Run binds it to the cluster's
// connections and attaches everything that watches the query.
func Run(ctx context.Context, c *Cluster, opts Options) (*Report, error) {
	return run(ctx, c, opts, nil)
}

// run is Run, resumed from known when it is not empty: the members of a
// maintained answer, which the round reports first and then runs only
// over the band below them (round.Options.Known; Server.resume). A
// resumed query is never sampled for recording: its replay would need
// the answer it resumed from.
func run(ctx context.Context, c *Cluster, opts Options, known []serve.Entry) (*Report, error) {
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
	opts.Trace.begin(start)
	defer opts.Trace.finish()
	v := c.newView(opts.Trace, sid, msg.Query{
		Threshold: opts.Threshold,
		Dims:      opts.Dims,
		NoPrune:   opts.DisableSitePruning,
	})
	v.meter = &transport.Meter{}
	// When profiling (obs.SetProfiling), attribute samples on the
	// coordinator goroutine — where in-process sites answer, and whose
	// labels any goroutine a fan-out starts inherits — to (algorithm,
	// phase, query_id). Nil and free otherwise.
	o := &observer{c: c, opts: &opts, qid: sid, sid: sid, start: start, meter: v.meter,
		labels: newProfLabels(ctx, opts.Algorithm, sid)}
	defer o.labels.exit()

	// Black-box recording: when the transcript sink samples this query
	// (or Options.Record forces it), the view records every RPC from here
	// on into the transcript. Unrecorded queries never take this branch —
	// the sampling decision is the whole cost of the feature on the
	// unsampled path.
	if len(known) == 0 && c.transcripts.ShouldRecord(opts.Record) {
		o.header = transcriptHeader(&opts, sid, start, len(c.clients), c.dims)
		o.recorder = transcript.NewRecorder(o.header, start)
		v.rec = o.recorder
	}

	ropts := round.Options{
		Threshold:      opts.Threshold,
		Dims:           opts.Dims,
		Enhanced:       opts.Algorithm == EDSUD,
		RoundRobin:     opts.Policy == PolicyRoundRobin,
		DisableExpunge: opts.DisableExpunge,
		MaxResults:     opts.MaxResults,
		TopK:           opts.TopK,
		Known:          known,
	}
	var (
		out *round.Outcome
		err error
		rep *Report
	)
	if opts.Algorithm == Baseline {
		out, err = round.Baseline(ctx, v, ropts, o.step)
	} else {
		out, err = round.Run(ctx, v, ropts, o.step)
		v.endSession()
	}
	if err == nil {
		// The TCP transport attributes wire bytes per request, so the
		// per-query meter is exact even under overlapping queries;
		// in-process sites put nothing on a wire.
		rep = &Report{Outcome: *out, Bandwidth: v.meter.Snapshot(), Resumed: len(known)}
	}
	return o.finish(rep, err)
}

// observer is the one place a query's watchers attach. Its step method
// subscribes to the round engine's stream on behalf of the profiling
// labels, the trace, Options.OnEvent, Report.Progress, the delivery curve
// and the OnResult provenance; its finish method is the one completion
// path — success or failure, protocol round or served read — behind the
// query log, the latency windows, the query counter, the transcript and
// the flight record that joins them.
type observer struct {
	c      *Cluster
	opts   *Options
	qid    uint64 // the query_id: the session ID, or for a served read one drawn beside them
	sid    uint64 // 0 for served reads: no site session
	start  time.Time
	meter  *transport.Meter // nil for served reads: no traffic to count
	labels *profLabels
	tally  round.Tally      // recomputed from the stream, for Result provenance
	tuples int64            // shipped so far, as the stream has announced them
	curve  progress.Builder // per-delivery observations are alloc-free
	points []progress.Point // Report.Progress; each also goes to curve

	recorder *transcript.Recorder
	header   *codec.TranscriptHeader
}

func (o *observer) step(s round.Step) {
	// Both are nil-safe; testing here spares the unwatched query two
	// calls per step.
	if o.labels != nil {
		o.labels.step(s)
	}
	if o.opts.Trace != nil {
		o.opts.Trace.step(s)
	}
	o.tally.Observe(s)
	if s.Kind != round.StepEvent {
		return
	}
	e := s.Event
	if o.opts.OnEvent != nil {
		o.opts.OnEvent(e)
	}
	// A result is charged what the algorithm had taken in when it reported,
	// not the meter's reading: the home site's next representative may
	// have arrived beside the factors, and it belongs to the next result.
	switch e.Kind {
	case EventToServer:
		o.tuples++
	case EventBroadcast:
		o.tuples += int64(len(o.c.clients) - 1)
	}
	if e.Kind != EventReport {
		return
	}
	p := progress.Point{K: int32(len(o.points) + 1), NS: int64(time.Since(o.start)), Tuples: o.tuples}
	if o.opts.Algorithm == Baseline && o.meter != nil {
		// The Baseline announces no representative: all shipped up front.
		p.Tuples = o.meter.Snapshot().Tuples()
	}
	o.points = append(o.points, p)
	o.curve.Observe(e.Site, p)
	if o.opts.OnResult != nil {
		o.opts.OnResult(Result{
			Tuple: e.Tuple, GlobalProb: e.Prob, Site: e.Site,
			Index: int(p.K), Phase: s.Phase, Iteration: e.Iteration,
			Broadcasts: o.tally.Broadcasts, Expunged: o.tally.Expunged,
			Refills: o.tally.Refills, PrunedLocal: o.tally.PrunedLocal,
		})
	}
}

// finish completes the query: rep is nil exactly when err is not. A
// served read (rep.Source says so) is named by its source in the records,
// and stays out of the query counter and the query-latency window — the
// Server's own window owns that latency.
func (o *observer) finish(rep *Report, err error) (*Report, error) {
	c, opts := o.c, o.opts
	elapsed := time.Since(o.start)
	name := opts.Algorithm.String()
	if err == nil {
		if rep.Source == SourceProtocol {
			c.countQuery(opts.Algorithm)
			c.winQuery.Observe(elapsed)
		} else {
			name = rep.Source.String()
		}
		rep.QueryID, rep.Algorithm = o.qid, opts.Algorithm
		rep.Elapsed = elapsed
		rep.Progress = o.points
		rep.Curve = &progress.Digest{Sites: int32(len(c.clients))}
		o.curve.Finish(rep.Curve, elapsed, rep.Bandwidth.Tuples())
		if ttf := rep.Curve.TTFirstNS; ttf > 0 {
			c.winFirst.Observe(time.Duration(ttf))
		}
	}
	opts.logQuery(o.qid, rep, err, elapsed)
	var path string
	var werr error
	if o.recorder != nil {
		// A failed query seals what was captured with no summary frame: a
		// truncated transcript still shows how far the exchange got.
		if path, werr = c.transcripts.Finish(o.recorder, o.header, transcriptSummary(rep)); werr != nil && opts.Logger != nil {
			opts.Logger.Warn("transcript not written", "query_id", obs.QueryID(o.qid), "err", werr)
		}
	}
	c.recordFlight(o, name, rep, err, elapsed, path, werr)
	return rep, err
}

// logQuery emits the query's structured log record: Error on failure,
// Warn when the query crossed the SlowQuery threshold (with the per-phase
// breakdown when it was traced), Info otherwise. query_id is the session
// every RPC of the query carries, so it matches the sites' request logs.
// No-op without a logger.
func (o Options) logQuery(id uint64, rep *Report, err error, elapsed time.Duration) {
	if o.Logger == nil {
		return
	}
	qid := obs.QueryID(id)
	if err != nil {
		o.Logger.Error("query failed",
			"query_id", qid, "algorithm", o.Algorithm.String(),
			"threshold", o.Threshold, "dur", elapsed, "err", err)
		return
	}
	args := []any{
		"query_id", qid, "algorithm", o.Algorithm.String(),
		"threshold", o.Threshold, "dur", elapsed,
		"skyline", len(rep.Skyline), "iterations", rep.Iterations,
		"tuples", rep.Bandwidth.Tuples(), "bytes", rep.Bandwidth.Bytes,
	}
	if rep.Resumed > 0 {
		args = append(args, "resumed", rep.Resumed)
	}
	if o.SlowQuery > 0 && elapsed >= o.SlowQuery {
		args = append(args, "slow_threshold", o.SlowQuery)
		if o.Trace != nil { // an untraced query timed no phase
			sum := o.Trace.Summary()
			for _, p := range Phases() {
				args = append(args, "phase_"+p.String(), sum.Phases[p].Total)
			}
		}
		o.Logger.Warn("slow query", args...)
		return
	}
	o.Logger.Info("query done", args...)
}
