// Package site implements the local-site engine of the DSUD protocol: each
// site indexes its uncertain partition in a PR-tree, keeps its local
// skyline set SKY(D_i) sorted by descending local skyline probability
// (§5.1; skyIndex) across queries and updates, streams representatives to
// the coordinator, evaluates feedback tuples (Observation 1, eq. 9),
// applies the Observation-2 local pruning rule, and services the §5.4
// update operations.
//
// Query state is kept per session (msg.Request.Session), so several
// coordinators — or several concurrent queries from one coordinator — can
// share a site without trampling each other's cursors.
package site

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/prtree"
	"repro/internal/transport"
	"repro/internal/uncertain"
)

// MaxSessions caps concurrent query sessions per site; KindInit beyond the
// cap is rejected so a leaky coordinator cannot exhaust site memory.
const MaxSessions = 128

// session is the per-query state created by KindInit.
type session struct {
	query msg.Query
	// sky is the not-yet-shipped suffix of SKY(D_i) as it stood at Init,
	// in report order: a private copy of the maintained index's prefix,
	// pruned in place, that later updates never touch.
	sky []uncertain.SkylineMember
	// pruned counts local skyline tuples discarded by feedback.
	pruned int
	// shipped counts representatives handed to the coordinator; start
	// stamps session creation. Both feed the flight record written when
	// the session ends.
	shipped int
	start   int64 // UnixNano
}

// Engine is one local site. It implements transport.Handler so it can be
// served in-process or over TCP unchanged. Engine is safe for concurrent
// use.
type Engine struct {
	id int

	mu       sync.Mutex
	index    *prtree.Tree
	sessions map[uint64]*session
	// sky holds the maintained local skylines, one per queried subspace,
	// most recently read first (see skyIndex).
	sky []skyIndex

	// replica mirrors the coordinator's global skyline SKY(H) (§5.4);
	// nil when replication is off.
	replica map[uncertain.TupleID]uncertain.Tuple

	// At-most-once dedup for retried requests, scoped per client ID
	// (msg.Request.Client): a sliding window of recently served
	// sequence numbers and their outcomes (see dedupState). Sequence
	// zero disables dedup (unsequenced callers).
	dedup map[uint64]*dedupState

	// Observability hooks, populated by Instrument; zero-valued (and paid
	// for by a single flag check) when the engine is uninstrumented.
	obsOn      bool
	obsReqs    [msg.MaxKind + 1]*obs.Counter
	obsLat     [msg.MaxKind + 1]*obs.Histogram
	obsReplays *obs.Counter
	obsPruned  *obs.Counter
	// obsSkyBuilds counts cold local-skyline searches (skyIndex.build).
	obsSkyBuilds *obs.Counter

	// logger and slowReq drive per-request structured logging; see
	// SetLogger. Nil logger = no logging.
	logger  *slog.Logger
	slowReq time.Duration

	// Health bookkeeping for KindStatus / /statusz. inFlight counts
	// requests between Handle entry and exit (including those queued
	// behind e.mu); requestsTotal counts requests ever entered;
	// lastUpdate is the UnixNano of the last mutating operation (insert,
	// delete, replicate; 0 = none since start). All three are atomics so
	// they can be read without the engine lock.
	start         time.Time
	inFlight      atomic.Int64
	requestsTotal atomic.Uint64
	lastUpdate    atomic.Int64
	// replicaVersion counts replica deltas applied (guarded by e.mu).
	replicaVersion uint64

	// flight, when set (SetFlightRecorder), receives one record per
	// finished query session. Nil-safe, so no guard at the record site.
	flight *flight.Recorder

	// win is the always-on rotating latency window behind the /statusz
	// percentiles (LatencyP50Ms..P99Ms): request durations measured from
	// Handle entry to exit, so time queued behind e.mu counts — that is
	// the latency the coordinator actually experiences. workerStats, when
	// set (SetWorkerStats), lets the same snapshot report the serving
	// transport's v2 worker-pool saturation.
	win         *obs.Window
	workerStats func() transport.WorkerStats

	// forceBadPrune is a test-only fault injection: when set,
	// handleEvaluate prunes every dominated candidate regardless of the
	// Observation-2 bound — an unsound prune the online auditor must
	// catch as a false dismissal. Never set in production code paths.
	forceBadPrune bool
}

// dedupState is one client's retry bookkeeping: a sliding window of the
// most recently served sequence numbers and their outcomes. A window —
// not just the single last sequence — because the mux transport lets
// one client run many requests concurrently, so retries and first
// deliveries arrive interleaved and out of order.
type dedupState struct {
	outcomes map[uint64]dedupOutcome
	order    []uint64 // insertion ring; order[head] is the oldest entry
	head     int
	// floor is the highest sequence ever evicted from the window. A
	// sequence that is absent from outcomes and <= floor is refused as
	// stale rather than re-executed: it either was already served (and
	// its cached outcome aged out) or is too old to tell — refusal keeps
	// the exactly-once guarantee on the safe side in both cases.
	floor uint64
}

type dedupOutcome struct {
	resp *msg.Response
	err  error
}

// remember caches one served request's outcome, evicting the oldest
// entry once the window is full.
func (st *dedupState) remember(seq uint64, resp *msg.Response, err error) {
	if len(st.outcomes) >= DedupWindow {
		old := st.order[st.head]
		delete(st.outcomes, old)
		if old > st.floor {
			st.floor = old
		}
		st.order[st.head] = seq
		st.head = (st.head + 1) % DedupWindow
	} else {
		st.order = append(st.order, seq)
	}
	st.outcomes[seq] = dedupOutcome{resp: resp, err: err}
}

// DedupWindow is how many recent outcomes each client keeps replayable.
// A retry is only refused if more than this many newer requests from
// the same client completed before it arrived — far beyond what the
// retry transport's immediate re-send can produce.
const DedupWindow = 256

// maxDedupClients bounds the dedup table; beyond it, an arbitrary idle
// entry is evicted (its owner would only lose replay protection for its
// recent requests).
const maxDedupClients = 1024

// New builds a site engine over one uncertain partition. The PR-tree is
// bulk-loaded; dims is the data dimensionality and capacity the R-tree
// fan-out (<4 selects the default).
func New(id int, part uncertain.DB, dims, capacity int) *Engine {
	return &Engine{
		id:       id,
		index:    prtree.Bulk(part, dims, capacity),
		sessions: make(map[uint64]*session),
		dedup:    make(map[uint64]*dedupState),
		start:    time.Now(),
		win:      obs.NewWindow(obs.DefWindowWidth),
	}
}

// SetFlightRecorder attaches a flight recorder: every query session that
// ends (KindEndQuery) leaves one record of what the site shipped and
// pruned for it. A nil recorder (the default) disables recording.
func (e *Engine) SetFlightRecorder(r *flight.Recorder) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.flight = r
}

// FlightRecorder returns the recorder attached with SetFlightRecorder
// (nil when none), so daemons can dump it on shutdown.
func (e *Engine) FlightRecorder() *flight.Recorder {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.flight
}

// TestingForceBadPrune injects an unsound Observation-2 prune: every
// feedback-dominated candidate is discarded regardless of the
// probability bound. It exists so tests can prove the online auditor
// detects false dismissals; production code must never call it.
func (e *Engine) TestingForceBadPrune(on bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.forceBadPrune = on
}

// SetWorkerStats attaches the serving transport's worker-pool gauge
// (transport.Server.WorkerStats) so Status can report mux saturation
// next to the engine's own in-flight count. nil detaches.
func (e *Engine) SetWorkerStats(fn func() transport.WorkerStats) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.workerStats = fn
}

// Window returns the engine's rotating request-latency window, so
// daemons can export its quantiles on their metrics registry
// (obs.ExposeWindow).
func (e *Engine) Window() *obs.Window { return e.win }

// ID returns the site's index, fixed at construction.
func (e *Engine) ID() int { return e.id }

// Len returns the number of tuples currently stored at the site.
func (e *Engine) Len() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.index.Len()
}

// Sessions returns the number of live query sessions.
func (e *Engine) Sessions() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.sessions)
}

// Handle implements transport.Handler.
func (e *Engine) Handle(ctx context.Context, req *msg.Request) (*msg.Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e.inFlight.Add(1)
	defer e.inFlight.Add(-1)
	e.requestsTotal.Add(1)
	reqStart := time.Now()
	defer func() {
		// Status probes stay out of the window: a coordinator's watch polls
		// every interval and would otherwise measure itself.
		if req.Kind != msg.KindStatus {
			e.win.Observe(time.Since(reqStart))
		}
	}()
	e.mu.Lock()
	defer e.mu.Unlock()
	if req.Seq != 0 {
		st := e.dedup[req.Client]
		if st == nil {
			if len(e.dedup) >= maxDedupClients {
				for k := range e.dedup {
					delete(e.dedup, k)
					break
				}
			}
			st = &dedupState{outcomes: make(map[uint64]dedupOutcome)}
			e.dedup[req.Client] = st
		}
		if out, ok := st.outcomes[req.Seq]; ok {
			// A retry of a request we already served: replay the cached
			// outcome instead of re-executing (Next and the update
			// operations are not idempotent).
			e.obsReplays.Inc()
			return out.resp, out.err
		}
		if req.Seq <= st.floor {
			return nil, fmt.Errorf("site %d: stale sequence %d from client %d (window floor %d)",
				e.id, req.Seq, req.Client, st.floor)
		}
		// Unseen and above the eviction floor: a first delivery, even if
		// it arrives after higher sequence numbers (concurrent senders).
		resp, err := e.serve(req)
		st.remember(req.Seq, resp, err)
		return resp, err
	}
	return e.serve(req)
}

func (e *Engine) dispatch(req *msg.Request) (*msg.Response, error) {
	switch req.Kind {
	case msg.KindInit:
		return e.handleInit(req)
	case msg.KindNext:
		return e.handleNext(req)
	case msg.KindEvaluate:
		return e.handleEvaluate(req)
	case msg.KindEndQuery:
		if s := e.sessions[req.Session]; s != nil {
			e.recordSession(req.Session, s)
			delete(e.sessions, req.Session)
		}
		return &msg.Response{}, nil
	case msg.KindShipAll:
		return e.handleShipAll()
	case msg.KindInsert:
		return e.handleInsert(req)
	case msg.KindDelete:
		return e.handleDelete(req)
	case msg.KindCandidates:
		return e.handleCandidates(req)
	case msg.KindReplicate:
		return e.handleReplicate(req)
	case msg.KindStatus:
		return &msg.Response{Status: e.statusLocked()}, nil
	default:
		return nil, fmt.Errorf("site %d: unknown request kind %v", e.id, req.Kind)
	}
}

// validQuery is Query.Validate against this site's dimensionality, so a
// malformed threshold or subspace never reaches the tree or an index.
func (e *Engine) validQuery(q msg.Query) error {
	if err := q.Validate(e.index.Dims()); err != nil {
		return fmt.Errorf("site %d: %w", e.id, err)
	}
	return nil
}

// handleInit runs the local computing phase: snapshot SKY(D_i) at the
// query's threshold — a prefix of the subspace's maintained index, which
// a first or lower-than-ever threshold builds with the PR-tree's
// threshold-aware BBS search — and hand out the first representative.
//
// A resumed query's Init also carries the answer the coordinator already
// holds: RemoveIDs names the known members homed here, which leave the
// snapshot unshipped, and Tuples the known members homed elsewhere, each
// at its home local probability, by which the snapshot is pruned in turn
// exactly as that many evaluates would prune it (session.prune). So no
// known answer is shipped or broadcast again.
func (e *Engine) handleInit(req *msg.Request) (*msg.Response, error) {
	if err := e.validQuery(req.Query); err != nil {
		return nil, err
	}
	if _, exists := e.sessions[req.Session]; !exists && len(e.sessions) >= MaxSessions {
		return nil, fmt.Errorf("site %d: session limit (%d) reached", e.id, MaxSessions)
	}
	for _, known := range req.Tuples {
		if err := known.Tuple.Validate(e.index.Dims()); err != nil {
			return nil, fmt.Errorf("site %d: bad known member: %w", e.id, err)
		}
	}
	s := &session{
		query: req.Query,
		sky:   slices.Clone(e.localSkyline(req.Query.Threshold, req.Query.Dims)),
		start: time.Now().UnixNano(),
	}
	if len(req.RemoveIDs) > 0 {
		known := make(map[uncertain.TupleID]bool, len(req.RemoveIDs))
		for _, id := range req.RemoveIDs {
			known[id] = true
		}
		s.sky = slices.DeleteFunc(s.sky, func(m uncertain.SkylineMember) bool { return known[m.Tuple.ID] })
	}
	pruned := 0
	for _, known := range req.Tuples {
		pruned += s.prune(msg.Feedback{Tuple: known.Tuple, HomeLocalProb: known.LocalProb}, e.forceBadPrune)
	}
	e.obsPruned.Add(int64(pruned))
	e.sessions[req.Session] = s
	resp := &msg.Response{Pruned: pruned, SessionPruned: s.pruned}
	s.next(resp)
	return resp, nil
}

// ErrNoSession refuses a Next, a session evaluate or a refill for a query
// session the site does not hold: one never initialised here, already
// ended, or lost to a site restart. Answering such an evaluate from the
// full space and without pruning would hand a subspace query a silently
// wrong factor, so the coordinator gets this error instead.
var ErrNoSession = errors.New("no such query session")

// handleNext pops the most promising remaining local skyline tuple.
func (e *Engine) handleNext(req *msg.Request) (*msg.Response, error) {
	s := e.sessions[req.Session]
	if s == nil {
		return nil, fmt.Errorf("site %d: Next before Init (session %d): %w", e.id, req.Session, ErrNoSession)
	}
	resp := &msg.Response{}
	s.next(resp)
	return resp, nil
}

// next moves the session's head into resp as its representative, or marks
// resp exhausted. The session's members alias the tree's points; the
// response gets its own.
func (s *session) next(resp *msg.Response) {
	if len(s.sky) == 0 {
		resp.Exhausted = true
		return
	}
	head := s.sky[0]
	s.sky = s.sky[1:]
	s.shipped++
	resp.Rep = msg.Representative{Tuple: head.Tuple.Clone(), LocalProb: head.Prob}
}

// recordSession writes the flight record for a finished query session.
// Caller holds e.mu.
func (e *Engine) recordSession(id uint64, s *session) {
	if e.flight == nil {
		return
	}
	rec := flight.Record{
		QueryID:     id, // the coordinator's query ID is the session ID
		Session:     id,
		Threshold:   s.query.Threshold,
		Start:       s.start,
		ElapsedNS:   time.Now().UnixNano() - s.start,
		Outcome:     flight.OutcomeOK,
		Results:     s.shipped,
		PrunedLocal: s.pruned,
		TuplesUp:    int64(s.shipped),
	}
	rec.AddSiteCost(e.id, int64(s.shipped), int64(s.pruned))
	rec.Sites = e.id + 1
	e.flight.Record(&rec)
}

// handleEvaluate answers a feedback broadcast: report this site's eq. 9
// factor for the feedback tuple and prune the session's local skyline
// (Local-Pruning phase; session.prune). A Refill evaluate then pops the
// next representative, as a Next right after it would, so the refill of an
// expunged candidate never ships a tuple this feedback pruned. Only session
// 0 may be absent: without it (maintenance traffic), the request's own
// Query supplies the dominance subspace, and the request may batch: see
// evaluateBatch.
func (e *Engine) handleEvaluate(req *msg.Request) (*msg.Response, error) {
	if len(req.Tuples) > 0 {
		return e.evaluateBatch(req)
	}
	feed := req.Feed
	if err := feed.Tuple.Validate(e.index.Dims()); err != nil {
		return nil, fmt.Errorf("site %d: bad feedback: %w", e.id, err)
	}
	s := e.sessions[req.Session]
	if s == nil && (req.Session != 0 || req.Refill) {
		return nil, fmt.Errorf("site %d: evaluate in session %d: %w", e.id, req.Session, ErrNoSession)
	}
	dims := req.Query.Dims
	if s != nil {
		dims = s.query.Dims
	}
	resp := &msg.Response{CrossProb: e.index.CrossSkyProb(feed.Tuple, dims)}
	if s != nil {
		resp.Pruned = s.prune(feed, e.forceBadPrune)
		e.obsPruned.Add(int64(resp.Pruned))
		resp.SessionPruned = s.pruned
		if req.Refill {
			s.next(resp)
		}
	}
	return resp, nil
}

// prune discards the session's remaining local skyline tuples that the
// feedback rules out and returns how many it dropped. A remaining tuple s
// goes iff the feedback t dominates it and the Observation-2 upper bound
// on s's global skyline probability,
//
//	P_sky(s, D_x) × P_sky(t, D_home)/P(t) × (1 − P(t))
//
// proves it below the query threshold (uncertain.BoundBelow) — a sound
// prune because every dominator of t at t's home site also dominates s.
// force drops every dominated tuple regardless (TestingForceBadPrune).
func (s *session) prune(feed msg.Feedback, force bool) int {
	if s.query.NoPrune || len(s.sky) == 0 {
		return 0
	}
	homeFactor := feed.HomeLocalProb / feed.Tuple.Prob * (1 - feed.Tuple.Prob)
	pruned := 0
	kept := s.sky[:0]
	for _, cand := range s.sky {
		if feed.Tuple.Dominates(cand.Tuple, s.query.Dims) &&
			(force || uncertain.BoundBelow(cand.Prob*homeFactor, s.query.Threshold)) {
			pruned++
			continue
		}
		kept = append(kept, cand)
	}
	s.sky = kept
	s.pruned += pruned
	return pruned
}

// ErrBatchedSession refuses an Evaluate that carries a batch of tuples
// inside a query session, or a refill: what a batch may prune is not
// defined yet, so a batch is maintenance traffic only.
var ErrBatchedSession = errors.New("batched evaluate is sessionless")

// evaluateBatch answers a sessionless Evaluate carrying candidates: the
// eq. 9 factor of each at this site, aligned with them, and nothing pruned.
func (e *Engine) evaluateBatch(req *msg.Request) (*msg.Response, error) {
	if req.Session != 0 || req.Refill {
		return nil, fmt.Errorf("site %d: session %d: %w", e.id, req.Session, ErrBatchedSession)
	}
	if err := e.validQuery(req.Query); err != nil {
		return nil, err
	}
	for _, cand := range req.Tuples {
		if err := cand.Tuple.Validate(e.index.Dims()); err != nil {
			return nil, fmt.Errorf("site %d: bad candidate: %w", e.id, err)
		}
	}
	cross := make([]float64, len(req.Tuples))
	for k, cand := range req.Tuples {
		cross[k] = e.index.CrossSkyProb(cand.Tuple, req.Query.Dims)
	}
	return &msg.Response{CrossProbs: cross}, nil
}

// handleShipAll returns the whole partition (baseline algorithm).
func (e *Engine) handleShipAll() (*msg.Response, error) {
	out := make([]msg.Representative, 0, e.index.Len())
	e.index.All(func(tu uncertain.Tuple) bool {
		out = append(out, msg.Representative{Tuple: tu.Clone()})
		return true
	})
	return &msg.Response{Tuples: out}, nil
}

// handleInsert applies one insertion (§5.4) and returns the fresh local
// skyline probability of the inserted tuple (in the request's subspace)
// so the coordinator can start its global evaluation without another
// round trip.
func (e *Engine) handleInsert(req *msg.Request) (*msg.Response, error) {
	if err := req.Tuple.Validate(e.index.Dims()); err != nil {
		return nil, fmt.Errorf("site %d: bad insert: %w", e.id, err)
	}
	// An insert may leave the threshold zero (no replica filter); anything
	// else must be a valid query.
	q := req.Query
	if q.Threshold == 0 {
		q.Threshold = 1
	}
	if err := e.validQuery(q); err != nil {
		return nil, err
	}
	e.index.Insert(req.Tuple)
	e.lastUpdate.Store(time.Now().UnixNano())
	local := e.index.SkyProb(req.Tuple, req.Query.Dims)
	if ix := e.hotSkyIndex(); ix != nil {
		inSub := local
		if !slices.Equal(ix.dims, req.Query.Dims) {
			inSub = e.index.SkyProb(req.Tuple, ix.dims)
		}
		ix.inserted(req.Tuple, inSub)
	}
	resp := &msg.Response{
		Rep: msg.Representative{Tuple: req.Tuple, LocalProb: local},
	}
	// Replica filter (§5.4): if the global skyline copy alone pushes the
	// newcomer's best possible global probability below the threshold,
	// tell the coordinator to skip the evaluation broadcast. Sound: every
	// replica member is a real tuple of D. The bound starts from P(u), not
	// from local: local already carries this site's dominators, and a
	// replica member homed here would count twice.
	if e.replica != nil && req.Query.Threshold > 0 {
		bound := req.Tuple.Prob
		for _, r := range e.replica {
			if r.ID != req.Tuple.ID && r.Dominates(req.Tuple, req.Query.Dims) {
				bound *= 1 - r.Prob
			}
		}
		if bound < req.Query.Threshold {
			resp.Hopeless = true
		}
	}
	return resp, nil
}

// handleReplicate applies a delta to the site's SKY(H) replica.
func (e *Engine) handleReplicate(req *msg.Request) (*msg.Response, error) {
	if e.replica == nil {
		e.replica = make(map[uncertain.TupleID]uncertain.Tuple)
	}
	for _, id := range req.RemoveIDs {
		delete(e.replica, id)
	}
	for _, rep := range req.Tuples {
		if err := rep.Tuple.Validate(e.index.Dims()); err != nil {
			return nil, fmt.Errorf("site %d: bad replica tuple: %w", e.id, err)
		}
		e.replica[rep.Tuple.ID] = rep.Tuple.Clone()
	}
	e.replicaVersion++
	e.lastUpdate.Store(time.Now().UnixNano())
	return &msg.Response{}, nil
}

// handleDelete applies one deletion (§5.4). A delete that names a Query
// (incremental maintenance) then answers the promotion candidates, as
// handleCandidates would right after it; the query is validated before
// the tree is touched. A query-less delete (ApplyNaive) answers nothing.
func (e *Engine) handleDelete(req *msg.Request) (*msg.Response, error) {
	q := req.Query
	named := q.Threshold != 0 || q.Dims != nil || q.NoPrune
	if named {
		if err := e.validQuery(q); err != nil {
			return nil, err
		}
	}
	if err := e.index.Delete(req.ID, req.Point); err != nil {
		return nil, fmt.Errorf("site %d: delete %d: %w", e.id, req.ID, err)
	}
	e.lastUpdate.Store(time.Now().UnixNano())
	if ix := e.hotSkyIndex(); ix != nil {
		ix.deleted(e.index, req.ID, req.Point)
	}
	if !named {
		return &msg.Response{}, nil
	}
	return &msg.Response{Tuples: e.candidates(uncertain.Tuple{ID: req.ID, Point: req.Point}, q)}, nil
}

// handleCandidates finds, after the deletion of req.Feed.Tuple at another
// site, the promotion candidates of incremental maintenance (candidates).
// The threshold and subspace ride in the request's Query (maintenance is
// independent of query sessions).
func (e *Engine) handleCandidates(req *msg.Request) (*msg.Response, error) {
	if err := e.validQuery(req.Query); err != nil {
		return nil, err
	}
	gone := req.Feed.Tuple
	if err := gone.Validate(e.index.Dims()); err != nil {
		return nil, fmt.Errorf("site %d: bad feedback: %w", e.id, err)
	}
	return &msg.Response{Tuples: e.candidates(gone, req.Query)}, nil
}

// candidates are the local tuples the deleted tuple gone used to dominate
// whose fresh local skyline probability reaches q's threshold: the
// dominated members of SKY(D_i) at that threshold. The deleted tuple's home
// site folded the deletion into its index when it applied it, and at every
// other site D_i did not change.
func (e *Engine) candidates(gone uncertain.Tuple, q msg.Query) []msg.Representative {
	var out []msg.Representative
	for _, m := range e.localSkyline(q.Threshold, q.Dims) {
		if m.Tuple.ID != gone.ID && gone.Dominates(m.Tuple, q.Dims) {
			out = append(out, msg.Representative{Tuple: m.Tuple.Clone(), LocalProb: m.Prob})
		}
	}
	return out
}

// LocalSkylineSize reports how many local skyline tuples remain unshipped
// in the default session, for tests and diagnostics.
func (e *Engine) LocalSkylineSize() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if s := e.sessions[0]; s != nil {
		return len(s.sky)
	}
	return 0
}

// PrunedTotal reports how many local skyline tuples feedback pruning
// discarded in the default session.
func (e *Engine) PrunedTotal() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if s := e.sessions[0]; s != nil {
		return s.pruned
	}
	return 0
}
