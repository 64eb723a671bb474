package core

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/progress"
	"repro/internal/obs/transcript"
	"repro/internal/round"
	"repro/internal/transport"
	"repro/internal/uncertain"
)

// Cluster is the coordinator's view of the distributed system: one metered
// client per site plus the shared bandwidth meter. Queries may run
// concurrently against one Cluster: each Run gets its own site sessions
// and its own bandwidth meter (the Cluster meter keeps the combined
// totals).
type Cluster struct {
	clients []transport.Client
	meter   *transport.Meter
	dims    int
	// sessionBase is a random 64-bit nonce so session IDs from different
	// coordinator processes sharing the same site daemons never collide;
	// sessions counts queries within this cluster.
	sessionBase uint64
	sessions    atomic.Uint64

	// obsQueries counts completed queries per algorithm, populated by
	// Instrument (nil entries no-op when uninstrumented).
	obsQueries [algorithmEnd]*obs.Counter

	// flight, when set (SetFlightRecorder), receives one record per
	// completed query — success or failure, served reads included.
	// Nil-safe at the record site.
	flight *flight.Recorder

	// progress, when set (SetProgressLog), retains each successful
	// query's delivery-curve digest for /queryz, served reads included.
	// Nil-safe at the record site.
	progress *progress.Log

	// logger, when set (ClusterConfig.Logger), is the default query
	// logger for runs whose Options carry none of their own.
	logger *slog.Logger

	// winQuery and winFirst, when set (SetLatencyWindows), observe each
	// successful query's end-to-end latency and time-to-first-result into
	// rotating windows — the coordinator-side feed for live percentiles
	// and SLO evaluation. Nil-safe at the observe site.
	winQuery *obs.Window
	winFirst *obs.Window

	// telemetry, when set (StartTelemetry), is the running cluster
	// telemetry plane; Health consults it for degraded marks. Like the
	// other observability attachments, start it before serving queries.
	telemetry *ClusterTelemetry

	// transcripts, when set (SetTranscriptSink), samples queries for
	// black-box recording: the full coordinator↔site exchange captured
	// as a replayable transcript. Nil-safe at the sampling site.
	transcripts *transcript.Sink
}

// SetLatencyWindows attaches rotating latency windows to the query path:
// query observes every successful Run's end-to-end latency, firstResult
// every successful query's time-to-first-result, traced or not and
// served reads included (it comes from the always-on delivery curve).
// Either may be nil. Call before serving queries; not synchronised with
// in-flight Runs.
func (c *Cluster) SetLatencyWindows(query, firstResult *obs.Window) {
	c.winQuery = query
	c.winFirst = firstResult
}

// SetFlightRecorder attaches a flight recorder: every query Run executes
// leaves one record (algorithm, threshold, per-phase timing, per-site
// shipped/pruned, outcome). A nil recorder (the default) disables
// recording. Call before serving queries; not synchronised with
// in-flight Runs.
func (c *Cluster) SetFlightRecorder(r *flight.Recorder) { c.flight = r }

// SetProgressLog attaches a delivery-curve log: every successful Run
// leaves one digest (checkpointed (t, k) curve, progress AUCs, per-site
// delivered counts), cross-linked to the flight recorder by query_id. A
// nil log (the default) disables retention — the Report still carries
// its own digest. Call before serving queries; not synchronised with
// in-flight Runs.
func (c *Cluster) SetProgressLog(l *progress.Log) { c.progress = l }

// ProgressLog returns the log attached with SetProgressLog (nil when
// none), so daemons can mount its /queryz handler.
func (c *Cluster) ProgressLog() *progress.Log { return c.progress }

// recordFlight writes one query's flight record under name, its algorithm
// or, for a served read, its source. rep is nil on failure.
func (c *Cluster) recordFlight(o *observer, name string, rep *Report, err error, elapsed time.Duration) {
	if c.flight == nil {
		return
	}
	opts := o.opts
	rec := flight.Record{
		QueryID:    opts.Trace.ID(),
		Session:    o.sid,
		Algorithm:  name,
		Threshold:  opts.Threshold,
		TopK:       opts.TopK,
		MaxResults: opts.MaxResults,
		Start:      o.start.UnixNano(),
		ElapsedNS:  int64(elapsed),
		Slow:       opts.SlowQuery > 0 && elapsed >= opts.SlowQuery,
		Outcome:    flight.OutcomeOK,
		Sites:      len(c.clients),
	}
	if err != nil {
		rec.Outcome = flight.OutcomeError
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			rec.Outcome = flight.OutcomeCanceled
		}
		rec.Err = err.Error()
	}
	if rep != nil {
		rec.Results = len(rep.Skyline)
		rec.Iterations = rep.Iterations
		rec.Broadcasts = rep.Broadcasts
		rec.Expunged = rep.Expunged
		rec.Refills = rep.Refills
		rec.PrunedLocal = rep.PrunedLocal
		rec.TuplesUp = rep.Bandwidth.TuplesUp
		rec.TuplesDown = rep.Bandwidth.TuplesDown
		rec.Messages = rep.Bandwidth.Messages
		rec.Bytes = rep.Bandwidth.Bytes
		for i, s := range rep.PerSite {
			rec.AddSiteCost(i, s.Shipped, s.Pruned)
		}
	}
	if opts.Trace != nil {
		sum := opts.Trace.Summary()
		for _, p := range Phases() {
			if rec.NumPhases >= flight.MaxPhases {
				break
			}
			st := sum.Phases[p]
			rec.Phases[rec.NumPhases] = flight.PhaseSummary{
				Name:  p.String(),
				Spans: int64(st.Spans),
				NS:    int64(st.Total),
			}
			rec.NumPhases++
		}
	}
	c.flight.Record(&rec)
}

// Instrument wires the cluster into reg: every site client gains per-RPC
// latency histograms and outcome counters (dsud_rpc_*), the shared
// bandwidth meter is exposed (dsud_transport_*), and completed queries
// are counted per algorithm (dsud_queries_total). Call once, before the
// first query; a nil registry is a no-op. Concurrent queries may share
// the instrumented cluster as usual.
func (c *Cluster) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	for i, cl := range c.clients {
		c.clients[i] = transport.Instrumented(cl, reg, strconv.Itoa(i))
	}
	transport.ExposeMeter(reg, c.meter)
	reg.Describe("dsud_queries_total", "Completed queries by algorithm.")
	for a := Baseline; a < algorithmEnd; a++ {
		c.obsQueries[a] = reg.Counter("dsud_queries_total", "algorithm", a.String())
	}
}

// countQuery tallies one completed query (nil-safe when uninstrumented).
func (c *Cluster) countQuery(a Algorithm) {
	if int(a) >= 0 && int(a) < len(c.obsQueries) {
		c.obsQueries[a].Inc()
	}
}

// view is one query's (or one maintainer's) handle on the cluster: the
// same connections, wrapped with a private meter so per-query bandwidth
// stays exact even when queries overlap, plus the query's trace (nil
// when untraced) whose context is stamped on every outgoing RPC. It is
// the round engine's Sites: session and query are what it binds to the
// engine's requests (a maintainer's view has no session and fills its
// fan-outs itself, under its query).
type view struct {
	clients []transport.Client
	meter   *transport.Meter
	tr      *Trace
	session uint64
	query   transport.Query
	// One fan-out's buffers, indexed by site and reused by the next: the
	// requests (Kind 0: nothing for that site), what came back, and the
	// engine's cut of it.
	wire    []transport.Request
	resps   []*transport.Response
	errs    []error
	replies []round.Response
}

// newView stacks a fresh meter over the shared clients. tr may be nil.
func (c *Cluster) newView(tr *Trace, session uint64, query transport.Query) *view {
	qm := &transport.Meter{}
	clients := make([]transport.Client, len(c.clients))
	for i, cl := range c.clients {
		clients[i] = transport.Metered(cl, qm)
	}
	n := len(clients)
	return &view{clients: clients, meter: qm, tr: tr, session: session, query: query,
		wire: make([]transport.Request, n), resps: make([]*transport.Response, n),
		errs: make([]error, n), replies: make([]round.Response, n)}
}

// nextSession allocates a globally unique session ID (never zero): a
// random per-cluster base plus a local counter.
func (c *Cluster) nextSession() uint64 {
	id := c.sessionBase + c.sessions.Add(1)
	if id == 0 {
		id = c.sessions.Add(1)
	}
	return id
}

// newSessionBase draws the random nonce behind nextSession.
func newSessionBase() uint64 {
	var buf [8]byte
	if _, err := cryptorand.Read(buf[:]); err != nil {
		return 0 // degraded: single-coordinator deployments still work
	}
	return binary.LittleEndian.Uint64(buf[:])
}

// NewLocalCluster builds an in-process cluster: one site.Engine per
// partition served over the local transport. dims is the data
// dimensionality; capacity tunes the PR-tree fan-out (<4 = default).
//
// Deprecated-style wrapper: Open(ClusterConfig{Partitions: ...}) is the
// consolidated constructor; this remains for existing callers.
func NewLocalCluster(parts []uncertain.DB, dims, capacity int) (*Cluster, error) {
	return Open(ClusterConfig{Partitions: parts, Dims: dims, Capacity: capacity})
}

// NewLocalClusterLatency is NewLocalCluster with a simulated per-message
// network round-trip latency, for studying progressiveness in the time
// domain on one machine.
//
// Deprecated-style wrapper: see Open (ClusterConfig.Latency).
func NewLocalClusterLatency(parts []uncertain.DB, dims, capacity int, latency time.Duration) (*Cluster, error) {
	return Open(ClusterConfig{Partitions: parts, Dims: dims, Capacity: capacity, Latency: latency})
}

// NewRemoteCluster connects to already-running TCP site daemons. dims must
// match the dimensionality the daemons were loaded with.
//
// Deprecated-style wrapper: Open(ClusterConfig{Addrs: ...}) is the
// consolidated constructor; this remains for existing callers.
func NewRemoteCluster(addrs []string, dims int) (*Cluster, error) {
	return Open(ClusterConfig{Addrs: addrs, Dims: dims})
}

// NewRemoteClusterRetry is NewRemoteCluster with fault tolerance: each
// site connection redials and retries up to attempts times per request,
// and requests carry sequence numbers so sites execute them exactly once
// even when a connection dies after processing (lost response). Use it
// when sites live across a real, unreliable network.
//
// Deprecated-style wrapper: see Open (ClusterConfig.RetryAttempts).
func NewRemoteClusterRetry(addrs []string, dims, attempts int) (*Cluster, error) {
	return Open(ClusterConfig{Addrs: addrs, Dims: dims, RetryAttempts: attempts})
}

// NewClusterFromClients wires arbitrary pre-built clients (tests, custom
// transports). The clients are metered against a fresh meter.
func NewClusterFromClients(clients []transport.Client, dims int) (*Cluster, error) {
	if len(clients) == 0 {
		return nil, ErrNoSites
	}
	meter := &transport.Meter{}
	metered := make([]transport.Client, len(clients))
	for i, c := range clients {
		metered[i] = transport.Metered(c, meter)
	}
	return &Cluster{clients: metered, meter: meter, dims: dims, sessionBase: newSessionBase()}, nil
}

// Sites returns the number of sites.
func (c *Cluster) Sites() int { return len(c.clients) }

// Dims returns the data dimensionality.
func (c *Cluster) Dims() int { return c.dims }

// Meter exposes the cluster's bandwidth meter.
func (c *Cluster) Meter() *transport.Meter { return c.meter }

// Close releases every site connection, returning the first error.
func (c *Cluster) Close() error {
	var first error
	for _, client := range c.clients {
		if err := client.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// call sends site i the request in its slot. When the view carries a
// sampled trace the request is stamped with the trace context — the slot
// is this call's alone, and the retry transport copies it for its own Seq
// stamp — and the send/receive wall clocks bracket the RPC for the
// clock-offset estimate used when merging the piggybacked site spans.
func (c *view) call(ctx context.Context, i int) {
	req, sent := &c.wire[i], time.Time{}
	if req.Trace = c.tr.context(); req.Trace.Traced() {
		sent = time.Now()
	}
	resp, err := c.clients[i].Call(ctx, req)
	if err != nil {
		c.errs[i] = fmt.Errorf("core: site %d %v: %w", i, req.Kind, err)
		return
	}
	if req.Trace.Traced() {
		c.tr.mergeSiteBlob(i, resp.TraceBlob, sent, time.Now())
	}
	c.resps[i] = resp
}

// issue is the view's one way to reach the sites: every filled slot of
// c.wire goes to its site, and the responses come back indexed the same
// way in a buffer the next fan-out reuses. The requests run in parallel,
// the last of them on the caller's goroutine — a fan-out of one starts
// none — and the first failure cancels the rest. What has already executed
// stays executed, so the caller must fail, not resend; the error it gets
// is a root cause in preference to a cancellation that cause triggered.
func (c *view) issue(ctx context.Context) ([]*transport.Response, error) {
	n, last := 0, 0
	for i := range c.wire {
		if c.wire[i].Kind != 0 {
			n, last = n+1, i
		}
	}
	clear(c.resps)
	clear(c.errs)
	switch n {
	case 0:
	case 1:
		c.call(ctx, last)
	default:
		ctx, cancel := context.WithCancel(ctx)
		var wg sync.WaitGroup
		for i := range c.wire[:last+1] {
			if c.wire[i].Kind == 0 {
				continue
			}
			wg.Add(1)
			run := func() {
				defer wg.Done()
				if c.call(ctx, i); c.errs[i] != nil {
					cancel()
				}
			}
			if i < last {
				go run()
			} else {
				run()
			}
		}
		wg.Wait()
		cancel()
	}
	var cause error
	for _, err := range c.errs {
		if err != nil && (cause == nil || errors.Is(cause, context.Canceled)) {
			cause = err
		}
	}
	return c.resps, cause
}

// send issues req to one site alone, or to every site when site is negative.
func (c *view) send(ctx context.Context, site int, req transport.Request) ([]*transport.Response, error) {
	for i := range c.wire {
		c.wire[i] = transport.Request{}
		if site < 0 || site == i {
			c.wire[i] = req
		}
	}
	return c.issue(ctx)
}

// Len and Fanout make the view the round engine's Sites: each engine
// request becomes the wire request the sites speak, bound to this view's
// session and query, and each reply is cut down to what the algorithm
// reads. Replies are converted on the caller's goroutine: a fan-out's
// goroutines start on small stacks that the sites' tree recursion already
// has to grow, and anything that deepens their frames costs a stack copy
// per call.
func (c *view) Len() int { return len(c.clients) }

func (c *view) Fanout(ctx context.Context, reqs []round.Request) ([]round.Response, error) {
	for i, r := range reqs {
		c.wire[i] = c.wireRequest(r)
	}
	resps, err := c.issue(ctx)
	if err != nil {
		return nil, err
	}
	for i, resp := range resps {
		c.replies[i] = round.Response{}
		if resp != nil {
			c.replies[i] = reply(resp)
		}
	}
	return c.replies, nil
}

func (c *view) wireRequest(r round.Request) transport.Request {
	switch r.Op {
	case round.OpInit:
		return transport.Request{Kind: transport.KindInit, Query: c.query, Session: c.session}
	case round.OpNext:
		return transport.Request{Kind: transport.KindNext, Session: c.session}
	case round.OpEvaluate:
		return transport.Request{Kind: transport.KindEvaluate, Session: c.session,
			Feed: transport.Feedback{Tuple: r.Feed.Tuple, HomeLocalProb: r.Feed.LocalProb}}
	case round.OpShipAll:
		return transport.Request{Kind: transport.KindShipAll}
	}
	return transport.Request{}
}

func reply(resp *transport.Response) round.Response {
	r := round.Response{
		Rep:           round.Representative(resp.Rep),
		Exhausted:     resp.Exhausted,
		CrossProb:     resp.CrossProb,
		Pruned:        resp.Pruned,
		SessionPruned: resp.SessionPruned,
	}
	if len(resp.Tuples) > 0 {
		r.Tuples = make(uncertain.DB, len(resp.Tuples))
		for k, rep := range resp.Tuples {
			r.Tuples[k] = rep.Tuple
		}
	}
	return r
}

// endSession releases the per-site session state when the query ends,
// whatever the path out; a lost end-query only costs site memory until
// the session cap evicts it, so failures are ignored.
func (c *view) endSession() {
	cleanup, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c.send(cleanup, -1, transport.Request{Kind: transport.KindEndQuery, Session: c.session})
}
