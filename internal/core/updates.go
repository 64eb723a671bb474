package core

// The Server's update path: it keeps the served answer current while
// tuples are inserted into and deleted from the local sites (§5.4), by one
// of two strategies: incremental (Insert/Delete: the round engine's update
// protocol, which exploits that an update to tuple u only rescales the
// global probabilities of tuples u dominates under eq. 5) or naive
// (ApplyNaive then Refresh: re-run the whole query, the paper's strawman).
// Updates are a totally ordered stream, as in the paper: each holds the
// write side of the Server's mu.

import (
	"context"
	"fmt"
	"runtime/pprof"
	"time"

	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/round"
	"repro/internal/serve"
	"repro/internal/uncertain"
)

// replicate pushes a copy of SKY(H) to every site and keeps it in sync
// through subsequent updates (round.Replicate). Sites use it to veto the
// evaluation of an insert that provably cannot qualify. The push costs
// m × |SKY(H)| tuples, each answer change one small broadcast, and a veto
// saves an m−1 broadcast.
func (s *Server) replicate(ctx context.Context) error {
	entries := s.store.Entries()
	adds := make([]msg.Representative, len(entries))
	for i, e := range entries {
		adds[i] = msg.Representative{Tuple: e.Member.Tuple, LocalProb: e.Member.Prob}
	}
	if err := round.Replicate(ctx, s.view, adds, nil); err != nil {
		return err
	}
	s.replicated = true
	return nil
}

// Insert adds tu at site home and repositions the affected tuples in the
// store, in round.Insert's at most two fan-outs (plus a replica sync).
// Updates serialise, and wait for the protocol rounds in flight; covered
// reads proceed against the previous version until the update lands. An
// update that fails after a site may have applied it invalidates the
// store, so covered reads — and the next update — refresh rather than
// serve the answer it changed.
func (s *Server) Insert(ctx context.Context, home int, tu uncertain.Tuple) (err error) {
	defer s.instr.begin(opInsert)(&err)
	return s.apply(ctx, round.Insert, home, tu)
}

// Delete removes tu, which must live at site home, in round.Delete's at
// most two fan-outs (plus a replica sync); see Insert.
func (s *Server) Delete(ctx context.Context, home int, tu uncertain.Tuple) (err error) {
	defer s.instr.begin(opDelete)(&err)
	return s.apply(ctx, round.Delete, home, tu)
}

// apply runs one incremental update at site home and installs what it
// does to the answer in one Apply, refreshing first if the store is
// invalid (a failed update, ApplyNaive or Invalidate left it behind the
// sites). A failed update invalidates the store: a site may already have
// applied it, so the answer is not to be trusted until a refresh.
func (s *Server) apply(ctx context.Context, update func(context.Context, round.Sites, round.Options, *serve.Store, int, uncertain.Tuple) (round.Update, error), home int, tu uncertain.Tuple) error {
	if ctx == nil {
		return ErrNilContext
	}
	if home < 0 || home >= s.cluster.Sites() {
		return fmt.Errorf("core: site %d out of range", home)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.store.Valid() {
		if err := s.refresh(ctx); err != nil {
			return err
		}
	}
	upd, err := update(ctx, s.view, round.Options{Threshold: s.opts.Threshold, Dims: s.opts.Dims, Replicas: s.replicated}, s.store, home, tu)
	if err != nil {
		s.store.Invalidate()
		return err
	}
	s.store.Apply(upd.Upserts, upd.Removed)
	s.instr.count(upd)
	return nil
}

// refresh is the naive maintenance strategy: re-run the entire distributed
// query from scratch and Replace the store — replicas included, so it is
// also the recovery path after ApplyNaive or a failed update. The caller
// holds the write side of mu.
func (s *Server) refresh(ctx context.Context) error {
	rep, err := Run(ctx, s.cluster, s.opts)
	if err != nil {
		return err
	}
	entries := make([]serve.Entry, len(rep.Skyline))
	adds := make([]msg.Representative, len(rep.Skyline))
	for i, member := range rep.Skyline {
		entries[i] = serve.Entry{Member: member, Site: rep.Sites[member.Tuple.ID], Local: rep.Local[member.Tuple.ID]}
		adds[i] = msg.Representative{Tuple: member.Tuple}
	}
	var removed []uncertain.TupleID
	for _, e := range s.store.Entries() {
		removed = append(removed, e.Member.Tuple.ID)
	}
	if s.replicated && len(adds)+len(removed) > 0 {
		if err := round.Replicate(ctx, s.view, adds, removed); err != nil {
			return err
		}
	}
	s.store.Replace(entries, time.Now())
	return nil
}

// ApplyNaive applies an update without incremental maintenance: the site
// mutates its partition and the store is invalidated, so the caller is
// expected to Refresh — and the next incremental update refreshes first
// if it does not. It exists so benchmarks charge the naive strategy the
// same site-update cost.
func (s *Server) ApplyNaive(ctx context.Context, home int, insert bool, tu uncertain.Tuple) error {
	if home < 0 || home >= s.cluster.Sites() {
		return fmt.Errorf("core: site %d out of range", home)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.store.Invalidate()
	// A delete naming no query asks the site for no promotion candidates.
	req := msg.Request{Kind: msg.KindDelete, ID: tu.ID, Point: tu.Point}
	if insert {
		req = msg.Request{Kind: msg.KindInsert, Tuple: tu}
		s.view.bind(&req)
	}
	_, err := s.view.send(ctx, home, req)
	return err
}

// Instrumentation for the update path: counters for applied updates,
// answer-member re-scorings and membership changes, a rotating latency
// window, and pprof op labels so profile samples attribute to insert vs
// delete maintenance.

const (
	opInsert = iota
	opDelete
	numOps
)

var opNames = [numOps]string{"insert", "delete"}

// maintInstr carries a Server's update instrumentation. A nil *maintInstr
// (no ClusterConfig.Metrics) costs each update one pointer test — the same
// discipline as profLabels.
type maintInstr struct {
	applied  [numOps]*obs.Counter
	errors   [numOps]*obs.Counter
	rescored *obs.Counter
	affected *obs.Counter
	window   *obs.Window

	// labels are pre-built pprof-labelled contexts per op, applied only
	// while obs.Profiling() is on.
	labels [numOps]context.Context
}

// newMaintInstr registers the update path's series on reg, or returns nil
// when reg is nil:
//
//	dsud_update_applied_total{op}   updates applied successfully
//	dsud_update_errors_total{op}    updates that failed
//	dsud_update_rescored_total      answer members whose probability was rescaled
//	dsud_update_affected_total      answer membership changes (admissions + evictions)
//	dsud_update_latency_seconds     each Insert/Delete's latency (obs.ExposeWindow)
func newMaintInstr(reg *obs.Registry) *maintInstr {
	if reg == nil {
		return nil
	}
	in := &maintInstr{window: obs.NewWindow(obs.DefWindowWidth)}
	for op := range numOps {
		in.applied[op] = reg.Counter("dsud_update_applied_total", "op", opNames[op])
		in.errors[op] = reg.Counter("dsud_update_errors_total", "op", opNames[op])
		in.labels[op] = pprof.WithLabels(context.Background(), pprof.Labels("op", "maintain-"+opNames[op]))
	}
	in.rescored = reg.Counter("dsud_update_rescored_total")
	in.affected = reg.Counter("dsud_update_affected_total")
	obs.ExposeWindow(reg, "dsud_update_latency_seconds", in.window)
	return in
}

func noopFin(*error) {}

// begin opens one update span: pprof op labels while profiling, and a
// closure that settles the applied/errors counters and the latency
// window from the update's result once it finishes (defer it).
func (in *maintInstr) begin(op int) func(*error) {
	if in == nil {
		return noopFin
	}
	if obs.Profiling() {
		pprof.SetGoroutineLabels(in.labels[op])
	}
	start := time.Now()
	return func(err *error) {
		in.window.Observe(time.Since(start))
		if *err != nil {
			in.errors[op].Add(1)
		} else {
			in.applied[op].Add(1)
		}
		if obs.Profiling() {
			pprof.SetGoroutineLabels(context.Background())
		}
	}
}

// count tallies an applied update's rescored members (its eq. 5 factor
// adjustments) and its membership changes (admissions and evictions).
func (in *maintInstr) count(upd round.Update) {
	if in == nil {
		return
	}
	in.rescored.Add(int64(upd.Rescored))
	in.affected.Add(int64(upd.Changed))
}
