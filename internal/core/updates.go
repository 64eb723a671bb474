package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/msg"
	"repro/internal/round"
	"repro/internal/serve"
	"repro/internal/uncertain"
)

// Maintainer keeps the global skyline answer current while tuples are
// inserted into and deleted from the local sites (§5.4), by one of two
// strategies: incremental (Insert/Delete: the round engine's update
// protocol, which exploits that an update to tuple u only rescales the
// global probabilities of tuples u dominates under eq. 5) or naive
// (Refresh: re-run the whole query, the paper's strawman).
//
// Maintainer is not safe for concurrent use; updates are a totally ordered
// stream, as in the paper. Its answer is one serve.Store at its threshold,
// read and edited in place: the Server built over it serves that same store.
type Maintainer struct {
	cluster    *Cluster
	view       *view
	opts       Options
	replicated bool
	store      *serve.Store // the answer; invalid after a failed update until a Refresh
	instr      *maintInstr  // optional; see Instrument / SetLatencyWindow
}

// NewMaintainer runs the initial query (with opts.Algorithm, defaulting to
// e-DSUD) and returns a maintainer holding the live answer. The Baseline
// algorithm is rejected: maintenance relies on the per-site query state
// that only the DSUD-family protocols establish.
func NewMaintainer(ctx context.Context, c *Cluster, opts Options) (*Maintainer, error) {
	if opts.Algorithm == Baseline {
		return nil, fmt.Errorf("%w: maintainer requires DSUD or EDSUD, not %v", ErrAlgorithm, opts.Algorithm)
	}
	opts = opts.withDefaults()
	m := &Maintainer{
		cluster: c,
		view:    c.newView(nil, 0, msg.Query{Threshold: opts.Threshold, Dims: opts.Dims}),
		opts:    opts,
		store:   serve.New(opts.Threshold),
	}
	if err := m.Refresh(ctx); err != nil {
		return nil, err
	}
	return m, nil
}

// EnableReplicas pushes a copy of SKY(H) to every site and keeps it in
// sync through subsequent updates (round.Replicate). Sites use it to veto
// the evaluation of an insert that provably cannot qualify. The push costs
// m × |SKY(H)| tuples, each answer change one small broadcast, and a veto
// saves an m−1 broadcast.
func (m *Maintainer) EnableReplicas(ctx context.Context) error {
	entries := m.store.Entries()
	adds := make([]msg.Representative, len(entries))
	for i, e := range entries {
		adds[i] = msg.Representative{Tuple: e.Member.Tuple, LocalProb: e.Member.Prob}
	}
	if err := round.Replicate(ctx, m.view, adds, nil); err != nil {
		return err
	}
	m.replicated = true
	return nil
}

// Skyline returns the current answer, sorted by descending probability.
func (m *Maintainer) Skyline() []uncertain.SkylineMember {
	entries, _ := m.store.Prefix(m.store.Floor())
	members := make([]uncertain.SkylineMember, len(entries))
	for i, e := range entries {
		members[i] = e.Member
	}
	return members
}

// Insert adds tu at site home and updates the answer incrementally, in
// round.Insert's at most two fan-outs (plus a replica sync).
func (m *Maintainer) Insert(ctx context.Context, home int, tu uncertain.Tuple) (err error) {
	defer m.instr.begin(opInsert)(&err)
	return m.apply(ctx, round.Insert, home, tu)
}

// Delete removes tu, which must live at site home, and updates the answer
// incrementally, in round.Delete's at most two fan-outs (plus a replica
// sync).
func (m *Maintainer) Delete(ctx context.Context, home int, tu uncertain.Tuple) (err error) {
	defer m.instr.begin(opDelete)(&err)
	return m.apply(ctx, round.Delete, home, tu)
}

// apply runs one incremental update at site home and installs what it
// does to the answer in one Apply, Refreshing first if the store is
// invalid (a failed update, ApplyNaive or Server.Invalidate left it behind
// the sites). A failed update invalidates the store: a site may already
// have applied it, so the answer is not to be trusted until a Refresh.
func (m *Maintainer) apply(ctx context.Context, update func(context.Context, round.Sites, round.Options, *serve.Store, int, uncertain.Tuple) (round.Update, error), home int, tu uncertain.Tuple) error {
	if home < 0 || home >= m.cluster.Sites() {
		return fmt.Errorf("core: site %d out of range", home)
	}
	if !m.store.Valid() {
		if err := m.Refresh(ctx); err != nil {
			return err
		}
	}
	upd, err := update(ctx, m.view, round.Options{Threshold: m.opts.Threshold, Dims: m.opts.Dims, Replicas: m.replicated}, m.store, home, tu)
	if err != nil {
		m.store.Invalidate()
		return err
	}
	m.store.Apply(upd.Upserts, upd.Removed)
	m.instr.count(upd)
	return nil
}

// Refresh is the naive maintenance strategy: re-run the entire distributed
// query from scratch and Replace the store — replicas included, so it is
// also the recovery path after ApplyNaive or a failed update.
func (m *Maintainer) Refresh(ctx context.Context) error {
	rep, err := Run(ctx, m.cluster, m.opts)
	if err != nil {
		return err
	}
	entries := make([]serve.Entry, len(rep.Skyline))
	adds := make([]msg.Representative, len(rep.Skyline))
	for i, member := range rep.Skyline {
		entries[i] = serve.Entry{Member: member, Site: rep.Sites[member.Tuple.ID]}
		adds[i] = msg.Representative{Tuple: member.Tuple}
	}
	var removed []uncertain.TupleID
	for _, e := range m.store.Entries() {
		removed = append(removed, e.Member.Tuple.ID)
	}
	if m.replicated && len(adds)+len(removed) > 0 {
		if err := round.Replicate(ctx, m.view, adds, removed); err != nil {
			return err
		}
	}
	m.store.Replace(entries, time.Now())
	return nil
}

// ApplyNaive applies an update without incremental maintenance: the site
// mutates its partition and the store is invalidated, so the caller is
// expected to Refresh — and the next incremental update Refreshes first
// if it does not. It exists so benchmarks charge the naive strategy the
// same site-update cost.
func (m *Maintainer) ApplyNaive(ctx context.Context, home int, insert bool, tu uncertain.Tuple) error {
	if home < 0 || home >= m.cluster.Sites() {
		return fmt.Errorf("core: site %d out of range", home)
	}
	m.store.Invalidate()
	// A delete naming no query asks the site for no promotion candidates.
	req := msg.Request{Kind: msg.KindDelete, ID: tu.ID, Point: tu.Point}
	if insert {
		req = m.view.bind(msg.Request{Kind: msg.KindInsert, Tuple: tu})
	}
	_, err := m.view.send(ctx, home, req)
	return err
}
