package core

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/transcript"
	"repro/internal/transport"
)

// Cluster is the coordinator's view of the distributed system: one client
// per site plus the shared bandwidth meter. Queries may run concurrently
// against one Cluster: each Run gets its own site sessions and its own
// bandwidth meter (the Cluster meter keeps the combined totals). Every
// call to a site goes through view.fanout.
type Cluster struct {
	clients []transport.Client
	meter   *transport.Meter
	dims    int
	// latency is the simulated round trip every fan-out sleeps before its
	// calls are made (ClusterConfig.Latency; in-process sites only).
	latency time.Duration
	// reg is the registry ClusterConfig.Metrics names (nil without one);
	// rpcs holds each site's per-kind RPC instruments resolved on it, nil
	// when uninstrumented, and then no call is timed.
	reg  *obs.Registry
	rpcs []*transport.RPCMetrics
	// sessionBase is a random 64-bit nonce so session IDs from different
	// coordinator processes sharing the same site daemons never collide;
	// sessions counts queries within this cluster.
	sessionBase uint64
	sessions    atomic.Uint64

	// summaries caches the sites' summaries a query routes its feedback
	// by (summary.go).
	summaries *summaries

	// obsQueries counts completed queries per algorithm, populated by
	// instrument (nil entries no-op when uninstrumented).
	obsQueries [algorithmEnd]*obs.Counter

	// flight, when set (ClusterConfig.FlightRecorder), receives one record
	// per completed query — success or failure, served reads included.
	// Nil-safe at the record site.
	flight *flight.Recorder

	// logger, when set (ClusterConfig.Logger), logs every query.
	logger *slog.Logger

	// winQuery and winFirst observe each successful query's end-to-end
	// latency and time-to-first-result into rotating windows — the
	// coordinator-side feed for live percentiles and SLO evaluation
	// (Windows).
	winQuery *obs.Window
	winFirst *obs.Window

	// transcripts, when set (ClusterConfig.TranscriptDir), writes the
	// transcripts of the queries run with Options.Record: the full
	// coordinator↔site exchange, replayable. Nil-safe.
	transcripts *transcript.Sink
}

// Windows returns the cluster's rotating latency windows: query observes
// every successful protocol round's end-to-end latency, firstResult every
// successful query's time-to-first-result, traced or not and served reads
// included (it comes from the always-on delivery curve). Both are always
// on; expose them with obs.ExposeWindow or judge them with an SLO.
func (c *Cluster) Windows() (query, firstResult *obs.Window) {
	return c.winQuery, c.winFirst
}

// recordFlight writes one query's flight record under name, its algorithm
// or, for a served read, its source. rep is nil on failure; transcript
// and werr are what writing its transcript gave, if it was recorded.
func (c *Cluster) recordFlight(o *observer, name string, rep *Report, err error, elapsed time.Duration, transcript string, werr error) {
	if c.flight == nil {
		return
	}
	opts := o.opts
	rec := flight.Record{
		QueryID:    o.qid,
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
		Transcript: transcript,
	}
	if err != nil {
		rec.Outcome = flight.OutcomeError
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			rec.Outcome = flight.OutcomeCanceled
		}
		rec.Err = err.Error()
	}
	if werr != nil {
		rec.TranscriptErr = werr.Error()
	}
	if rep != nil {
		rec.Curve = rep.Curve
		rec.Results = len(rep.Skyline)
		rec.Resumed = rep.Resumed
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
		for i, st := range sum.Sites {
			rec.AddSiteTime(i, st.CallNS-st.ServiceNS, st.ServiceNS)
		}
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

// instrument wires the cluster into reg (ClusterConfig.Metrics): every
// call to a site is timed and counted by outcome (dsud_rpc_*), the shared
// bandwidth meter is exposed (dsud_transport_*), and completed queries
// are counted per algorithm (dsud_queries_total). A nil registry is a
// no-op.
func (c *Cluster) instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	c.reg = reg
	c.rpcs = make([]*transport.RPCMetrics, len(c.clients))
	for i := range c.rpcs {
		c.rpcs[i] = transport.NewRPCMetrics(reg, strconv.Itoa(i))
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

// view is one query's (or one Server's updates') handle on the cluster: the
// shared connections plus what watches this caller's calls — its own
// meter, so per-query bandwidth stays exact even when queries overlap,
// its trace, whose context is stamped on every outgoing RPC, and its
// transcript recorder. Each is nil when nobody reads it. It is the round
// engine's Sites: session and query are what it binds to the engine's
// requests (an update view has no session, and binds its query).
type view struct {
	cluster *Cluster
	meter   *transport.Meter
	tr      *Trace
	rec     *transcript.Recorder
	session uint64
	query   msg.Query
	// dims is the query's subspace in ascending order, the key of the
	// summaries it routes by, held the summary each site's Init was asked
	// with: the cached one, sent back in the reply when the site ships
	// none, and routes the index of the summary each Init reply carried
	// (settle), which the engine routes by (Summary).
	dims   []int
	held   []summary
	routes []*msg.Index
	// summaryUp counts the summary points the sites shipped up, which
	// the delivery curve charges ahead of every answer.
	summaryUp int64
	// One fan-out's buffers, indexed by site and reused by the next: the
	// requests (Kind 0: nothing for that site), what came back and, once
	// calls are timed, when each went out. done carries the replies; made
	// by the first fan-out, it has room for one from every site, so no
	// Send ever waits on it.
	wire  []msg.Request
	resps []*msg.Response
	errs  []error
	sent  []time.Time
	done  chan transport.Reply
}

// newView opens a view with no meter or recorder of its own. tr may be nil.
func (c *Cluster) newView(tr *Trace, session uint64, query msg.Query) *view {
	n := len(c.clients)
	return &view{cluster: c, tr: tr, session: session, query: query, dims: sortedDims(query.Dims),
		wire: make([]msg.Request, n), resps: make([]*msg.Response, n),
		errs: make([]error, n)}
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

// NewClusterFromClients wires arbitrary pre-built clients (tests, custom
// transports). Their calls are metered against a fresh meter.
func NewClusterFromClients(clients []transport.Client, dims int) (*Cluster, error) {
	if len(clients) == 0 {
		return nil, ErrNoSites
	}
	return newCluster(clients, &transport.Meter{}, dims), nil
}

// newCluster is what both constructors build: the clients, their meter,
// and the state every cluster owns, with no observer attached.
func newCluster(clients []transport.Client, meter *transport.Meter, dims int) *Cluster {
	return &Cluster{
		clients:     clients,
		meter:       meter,
		dims:        dims,
		sessionBase: newSessionBase(),
		summaries:   newSummaries(len(clients)),
		winQuery:    obs.NewWindow(obs.DefWindowWidth),
		winFirst:    obs.NewWindow(obs.DefWindowWidth),
	}
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

// fanout is the coordinator's one call path to the sites: every view's
// fan-outs (queries, updates, Cluster.Partitions) and every health
// sweep go through it. It sends every filled slot of v.wire to its site,
// then collects one reply per slot into v.resps and v.errs, in arrival
// order and all on the caller's goroutine: in-process sites answer inside
// their Send, a mux connection's read loop delivers to v.done, and only
// other clients get a goroutine of their own (transport.Send). The
// cluster's simulated latency is one sleep in front of the whole fan-out,
// so every call is in flight together. With failFast the first failure
// cancels the calls still in flight. fanout returns once every slot has
// answered, so no reply outlives its fan-out and v.done starts the next
// one empty.
//
// For each call, once, fanout marks the request Timed when v carries a
// trace, times the call and counts its outcome when the cluster is
// instrumented, charges it to the cluster's meter and to v's own, records
// it into v's transcript, and adds the call's time and the site's
// ServiceNS into v's trace. A failed call is timed and counted, never
// charged, recorded or traced. An untraced, uninstrumented fan-out reads
// no clock.
func (v *view) fanout(ctx context.Context, failFast bool) {
	c := v.cluster
	clear(v.resps)
	clear(v.errs)
	n := 0
	for i := range v.wire {
		if v.wire[i].Kind != 0 {
			n++
		}
	}
	if n == 0 {
		return
	}
	if v.done == nil {
		v.done = make(chan transport.Reply, len(v.wire))
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	timed := v.tr != nil || c.rpcs != nil
	var lag time.Duration // the simulated latency, part of every call's time
	var start time.Time
	if timed {
		if v.sent == nil {
			v.sent = make([]time.Time, len(v.wire))
		}
		start = time.Now()
	}
	err := sleep(ctx, c.latency)
	if timed && c.latency > 0 {
		lag = time.Since(start)
	}
	got := 0
	collect := func() {
		if !v.finish(<-v.done, timed) && failFast {
			cancel()
		}
		got++
	}
	for i := range v.wire {
		req := &v.wire[i]
		if req.Kind == 0 {
			continue
		}
		req.Timed = v.tr != nil
		if timed {
			v.sent[i] = time.Now().Add(-lag)
		}
		if err != nil {
			v.done <- transport.Reply{Slot: i, Err: err}
		} else {
			transport.Send(c.clients[i], ctx, req, i, v.done)
		}
		// An in-process site has answered already: finish its call now,
		// so that its time is its own.
		for len(v.done) > 0 {
			collect()
		}
	}
	for got < n {
		collect()
	}
}

// finish accounts one reply (see fanout) into its slot and reports
// whether the call succeeded.
func (v *view) finish(r transport.Reply, timed bool) bool {
	c, i := v.cluster, r.Slot
	req := &v.wire[i]
	var dur time.Duration
	if timed {
		dur = time.Since(v.sent[i])
	}
	if c.rpcs != nil {
		c.rpcs[i].Observe(req.Kind, dur, r.Err)
	}
	if r.Err != nil {
		v.errs[i] = r.Err
		return false
	}
	r.Resp = v.settle(i, req, r.Resp)
	c.meter.Account(req, r.Resp)
	if v.meter != nil {
		v.meter.Account(req, r.Resp)
	}
	if r.Bytes > 0 { // in-process clients put nothing on a wire
		c.meter.AddBytes(r.Bytes)
		if v.meter != nil {
			v.meter.AddBytes(r.Bytes)
		}
	}
	v.rec.RecordCall(i, req, r.Resp, r.Bytes)
	if req.Timed {
		v.tr.addCall(i, dur, r.Resp.ServiceNS)
	}
	v.resps[i] = r.Resp
	return true
}

// settle keeps the cluster's summaries in step with one reply: an Init
// reply that ships a summary is cached, and one that names the version the
// Init was asked with gets that version's summary back from the cache, in
// a copy, so the engine and the transcript see the summary the query
// routes by; either way the view routes that site by the index the cache
// keeps (index). An insert or delete reply moves the site's cached
// summaries to its new version (summaries.updated).
func (v *view) settle(i int, req *msg.Request, resp *msg.Response) *msg.Response {
	switch {
	case req.Kind == msg.KindInit:
		if resp.Version != req.SummaryVersion {
			v.summaryUp += int64(resp.Summary.Len()) // as transport.Meter charges it
		}
		if v.routes == nil {
			v.routes = make([]*msg.Index, len(v.wire))
		}
		v.routes[i] = v.index(i, req, resp)
		if resp.Version != 0 && resp.Version == req.SummaryVersion && v.routes[i] != nil {
			filled := *resp
			filled.Summary = v.routes[i].Summary
			return &filled
		}
	case resp.Version != 0 && (req.Kind == msg.KindInsert || req.Kind == msg.KindDelete):
		v.cluster.summaries.updated(i, req, resp.Version)
	}
	return resp
}

// index is the index of the summary an Init reply carries or, when it
// names the version the Init was asked with, of the cached summary it
// stands for: the cache's own, built once per entry, unless the entry
// moved on since.
func (v *view) index(i int, req *msg.Request, resp *msg.Response) *msg.Index {
	sums := v.cluster.summaries
	switch {
	case resp.Version == 0:
	case resp.Version == req.SummaryVersion:
		if x := sums.indexed(i, v.dims, resp.Version); x != nil {
			return x
		}
		return v.held[i].Index()
	case resp.Summary.Fits(v.width()):
		sums.put(i, v.dims, resp.Version, resp.Summary)
		if x := sums.indexed(i, v.dims, resp.Version); x != nil {
			return x
		}
	}
	return resp.Summary.Index()
}

// width is the number of coordinates of a summary point on the view's
// subspace.
func (v *view) width() int {
	if v.dims == nil {
		return v.cluster.dims
	}
	return len(v.dims)
}

// sleep waits d, or until ctx is done and then returns its error. A
// non-positive d returns at once.
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// issue is the view's one way to reach the sites: every filled slot of
// v.wire goes to its site, and the responses come back indexed the same
// way in a buffer the next fan-out reuses. The first failure cancels the
// rest. What has already executed stays executed, so the caller must
// fail, not resend; the error it gets is a root cause in preference to a
// cancellation that cause triggered.
func (v *view) issue(ctx context.Context) ([]*msg.Response, error) {
	v.fanout(ctx, true)
	cause := -1
	for i, err := range v.errs {
		if err != nil && (cause < 0 || errors.Is(v.errs[cause], context.Canceled)) {
			cause = i
		}
	}
	if cause < 0 {
		return v.resps, nil
	}
	return v.resps, fmt.Errorf("core: site %d %v: %w", cause, v.wire[cause].Kind, v.errs[cause])
}

// send issues req, unbound, to one site, or to all when site is negative.
func (v *view) send(ctx context.Context, site int, req msg.Request) ([]*msg.Response, error) {
	for i := range v.wire {
		v.wire[i] = msg.Request{}
		if site < 0 || site == i {
			v.wire[i] = req
		}
	}
	return v.issue(ctx)
}

// Len and Fanout make the view the round engine's Sites: bind fills in
// what the engine leaves to it, and the replies go back as they came.
func (v *view) Len() int { return len(v.cluster.clients) }

func (v *view) Fanout(ctx context.Context, reqs []msg.Request) ([]*msg.Response, error) {
	for i := range reqs {
		v.wire[i] = reqs[i]
		v.bind(&v.wire[i])
		if v.wire[i].Kind == msg.KindInit {
			if v.held == nil {
				v.held = make([]summary, len(reqs))
			}
			v.held[i] = v.cluster.summaries.get(i, v.dims)
			v.wire[i].SummaryVersion = v.held[i].version
		}
	}
	return v.issue(ctx)
}

// Summary makes a view the engines' round.Summaries: on a query's view the
// index of the summary site's Init reply carried, and on an update view,
// which sends no Init, the index of the cluster's cached summary of site
// on the view's subspace, which the coordinator's own updates keep current.
func (v *view) Summary(site int) *msg.Index {
	if v.routes != nil {
		return v.routes[site]
	}
	return v.cluster.summaries.indexed(site, v.dims, 0)
}

// bind is the one place a request gets its session and query, filled in
// place. A query's view binds its session to an init, next, evaluate and
// end-query, and its query to the init; a Server's update view has no
// session, and binds its query to an insert, delete, candidates and
// (batched) evaluate.
func (v *view) bind(r *msg.Request) {
	switch r.Kind {
	case msg.KindInit:
		r.Session, r.Query = v.session, v.query
	case msg.KindNext, msg.KindEndQuery:
		r.Session = v.session
	case msg.KindEvaluate:
		if v.session != 0 {
			r.Session = v.session
		} else {
			r.Query = v.query
		}
	case msg.KindInsert, msg.KindDelete, msg.KindCandidates:
		r.Query = v.query
	}
}

// endSession releases the per-site session state when the query ends,
// whatever the path out; a lost end-query only costs site memory until
// the session cap evicts it, so failures are ignored.
func (v *view) endSession() {
	cleanup, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req := msg.Request{Kind: msg.KindEndQuery}
	v.bind(&req)
	v.send(cleanup, -1, req)
}
