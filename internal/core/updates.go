package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/msg"
	"repro/internal/serve"
	"repro/internal/uncertain"
)

// Maintainer keeps the global skyline answer current while tuples are
// inserted into and deleted from the local sites (§5.4). Two strategies
// are provided:
//
//   - Incremental (the Insert/Delete methods): exploit the algebraic
//     structure of eq. 5 — an update to tuple u only rescales the global
//     probabilities of tuples u dominates — so each update touches the
//     answer set directly and costs at most two fan-outs (plus a replica
//     sync). This follows the paper's replica-of-SKY(H) design, with one
//     soundness fix: the paper skips re-qualification when a deleted tuple
//     was not itself in SKY(H), but deleting any high-probability
//     dominator can promote tuples into the skyline, so we always run the
//     promotion check (documented in DESIGN.md).
//
//   - Naive (the Refresh method): re-run the whole distributed query from
//     scratch, the paper's strawman.
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
// sync through subsequent updates (§5.4: "we duplicate SKY(H) at all
// local sites"). Sites use the replica to veto the evaluation broadcast
// for inserts that provably cannot qualify globally — a strictly stronger
// filter than the local-probability check alone. The initial push costs
// m × |SKY(H)| tuples and each answer change costs one small broadcast;
// the saving is one m−1 broadcast per vetoed insert.
func (m *Maintainer) EnableReplicas(ctx context.Context) error {
	entries := m.store.Entries()
	adds := make([]msg.Representative, len(entries))
	for i, e := range entries {
		adds[i] = msg.Representative{Tuple: e.Member.Tuple, LocalProb: e.Member.Prob}
	}
	if _, err := m.view.send(ctx, -1, msg.Request{
		Kind: msg.KindReplicate, Tuples: adds,
	}); err != nil {
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

// Insert adds tu at site home and updates the answer incrementally:
//
//  1. the home site computes tu's fresh local skyline probability;
//  2. if that local bound reaches q, the coordinator broadcasts tu for its
//     exact global probability (Lemma 1) and admits it when >= q;
//  3. every current member dominated by tu is rescaled by (1 − P(tu)) and
//     evicted if it falls below q. Non-members dominated by tu only lose
//     probability, so no other tuple's membership can change — the update
//     is exact.
func (m *Maintainer) Insert(ctx context.Context, home int, tu uncertain.Tuple) (err error) {
	defer m.instr.begin(opInsert)(&err)
	if err := m.prepare(ctx, home); err != nil {
		return err
	}
	defer m.invalidateOnError(&err)
	resps, err := m.view.send(ctx, home, msg.Request{
		Kind: msg.KindInsert, Tuple: tu, Query: m.view.query,
	})
	if err != nil {
		return err
	}
	var upserts []serve.Entry
	var removed []uncertain.TupleID
	if local := resps[home].Rep.LocalProb; local >= m.opts.Threshold && !resps[home].Hopeless {
		global, err := m.evaluate(ctx, []candidate{{home, msg.Representative{Tuple: tu, LocalProb: local}}})
		if err != nil {
			return err
		}
		if global[0] >= m.opts.Threshold {
			upserts = append(upserts, serve.Entry{Member: uncertain.SkylineMember{Tuple: tu.Clone(), Prob: global[0]}, Site: home})
		}
	}
	rescored := 0
	for _, e := range m.store.Entries() {
		if e.Member.Tuple.ID != tu.ID && tu.Dominates(e.Member.Tuple, m.opts.Dims) {
			rescored++
			if e.Member.Prob *= 1 - tu.Prob; e.Member.Prob < m.opts.Threshold {
				removed = append(removed, e.Member.Tuple.ID)
			} else {
				upserts = append(upserts, e)
			}
		}
	}
	return m.commit(ctx, upserts, removed, rescored)
}

// Delete removes tu (which must currently live at site home) and updates
// the answer incrementally:
//
//  1. the home site drops the tuple from its index;
//  2. tu itself leaves the answer if present;
//  3. every member tu dominated is rescaled by 1/(1 − P(tu)) — their
//     probability only grew, so they all stay qualified;
//  4. non-members tu dominated may now qualify: each site reports the
//     formerly dominated tuples whose fresh local probability reaches q —
//     in the fan-out of step 1, the home site after applying it — and the
//     coordinator evaluates all of those candidates exactly in a second.
func (m *Maintainer) Delete(ctx context.Context, home int, tu uncertain.Tuple) (err error) {
	defer m.instr.begin(opDelete)(&err)
	if err := m.prepare(ctx, home); err != nil {
		return err
	}
	defer m.invalidateOnError(&err)
	v := m.view
	for j := range v.wire {
		v.wire[j] = msg.Request{Kind: msg.KindCandidates, Feed: msg.Feedback{Tuple: tu}, Query: v.query}
	}
	v.wire[home] = msg.Request{Kind: msg.KindDelete, ID: tu.ID, Point: tu.Point, Query: v.query}
	resps, err := v.issue(ctx)
	if err != nil {
		return err
	}
	var cands []candidate
	for j, resp := range resps {
		for _, rep := range resp.Tuples {
			if !m.store.Has(rep.Tuple.ID) {
				cands = append(cands, candidate{j, rep})
			}
		}
	}
	var upserts []serve.Entry
	var removed []uncertain.TupleID
	rescored := 0
	for _, e := range m.store.Entries() {
		if e.Member.Tuple.ID == tu.ID {
			removed = append(removed, tu.ID)
		} else if tu.Prob < 1 && tu.Dominates(e.Member.Tuple, m.opts.Dims) {
			rescored++
			// Numerical guard: a probability can never exceed the tuple's
			// own existential probability.
			e.Member.Prob = min(e.Member.Prob/(1-tu.Prob), e.Member.Tuple.Prob)
			upserts = append(upserts, e)
		}
	}
	global, err := m.evaluate(ctx, cands)
	if err != nil {
		return err
	}
	for k, c := range cands {
		if global[k] >= m.opts.Threshold {
			upserts = append(upserts, serve.Entry{Member: uncertain.SkylineMember{Tuple: c.rep.Tuple.Clone(), Prob: global[k]}, Site: c.site})
		}
	}
	return m.commit(ctx, upserts, removed, rescored)
}

// prepare opens an incremental update at site home, Refreshing first if
// the store is invalid: a failed update, or Server.Invalidate after an
// out-of-band change, left it behind the sites.
func (m *Maintainer) prepare(ctx context.Context, home int) error {
	if home < 0 || home >= m.cluster.Sites() {
		return fmt.Errorf("core: site %d out of range", home)
	}
	if !m.store.Valid() {
		return m.Refresh(ctx)
	}
	return nil
}

// invalidateOnError invalidates the store when an update that prepare
// opened fails: a site may already have applied it, so the answer is not
// to be trusted — by readers or by the next update — until a Refresh.
func (m *Maintainer) invalidateOnError(err *error) {
	if *err != nil {
		m.store.Invalidate()
	}
}

// commit installs an update once every wave of it has succeeded: the
// replicas first (one small broadcast of what it adds and removes), then
// the store, in one Apply.
func (m *Maintainer) commit(ctx context.Context, upserts []serve.Entry, removed []uncertain.TupleID, rescored int) error {
	var adds []msg.Representative
	for _, u := range upserts {
		if !m.store.Has(u.Member.Tuple.ID) {
			adds = append(adds, msg.Representative{Tuple: u.Member.Tuple})
		}
	}
	if err := m.replicate(ctx, adds, removed); err != nil {
		return err
	}
	m.store.Apply(upserts, removed)
	m.instr.addRescored(rescored)
	m.instr.addAffected(len(adds) + len(removed))
	return nil
}

// replicate sends the sites' replicas one change (nothing when replicas
// are off or the change is empty).
func (m *Maintainer) replicate(ctx context.Context, adds []msg.Representative, removed []uncertain.TupleID) error {
	if !m.replicated || len(adds)+len(removed) == 0 {
		return nil
	}
	_, err := m.view.send(ctx, -1, msg.Request{
		Kind: msg.KindReplicate, Tuples: adds, RemoveIDs: removed,
	})
	return err
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
	if err := m.replicate(ctx, adds, removed); err != nil {
		return err
	}
	m.store.Replace(entries, time.Now())
	return nil
}

// candidate is a tuple an update may admit: its home site and its local
// skyline probability there.
type candidate struct {
	site int
	rep  msg.Representative
}

// evaluate is Lemma 1 for every candidate at once, in one fan-out: site j
// is sent one batched Evaluate of the candidates whose home is not j (none:
// nothing is sent), and each global probability folds local × Π_{j≠home}
// of the factors in ascending site order, exactly as the round engine
// folds one broadcast — the same numbers, bit for bit.
func (m *Maintainer) evaluate(ctx context.Context, cands []candidate) ([]float64, error) {
	v := m.view
	for j := range v.wire {
		v.wire[j] = msg.Request{}
		for _, c := range cands {
			if c.site != j {
				v.wire[j].Tuples = append(v.wire[j].Tuples, c.rep)
			}
		}
		if len(v.wire[j].Tuples) > 0 {
			v.wire[j].Kind, v.wire[j].Query = msg.KindEvaluate, v.query
		}
	}
	resps, err := v.issue(ctx)
	if err != nil {
		return nil, err
	}
	for j, resp := range resps {
		if resp != nil && len(resp.CrossProbs) != len(v.wire[j].Tuples) {
			return nil, fmt.Errorf("core: site %d evaluate: %d factors for %d candidates", j, len(resp.CrossProbs), len(v.wire[j].Tuples))
		}
	}
	global, next := make([]float64, len(cands)), make([]int, len(resps))
	for k, c := range cands {
		global[k] = c.rep.LocalProb
		for j, resp := range resps {
			if j != c.site {
				global[k] *= resp.CrossProbs[next[j]]
				next[j]++
			}
		}
	}
	return global, nil
}

// ApplyNaive applies an update without incremental maintenance: the site
// mutates its partition and the caller is expected to Refresh. It exists
// so benchmarks charge the naive strategy the same site-update cost. Do
// not interleave ApplyNaive with the incremental Insert/Delete while
// replicas are enabled without an intervening Refresh — the replicas only
// stay exact when every change flows through one of the two paths.
func (m *Maintainer) ApplyNaive(ctx context.Context, home int, insert bool, tu uncertain.Tuple) error {
	if home < 0 || home >= m.cluster.Sites() {
		return fmt.Errorf("core: site %d out of range", home)
	}
	req := msg.Request{Kind: msg.KindDelete, ID: tu.ID, Point: tu.Point}
	if insert {
		req = msg.Request{Kind: msg.KindInsert, Tuple: tu, Query: m.view.query}
	}
	_, err := m.view.send(ctx, home, req)
	return err
}
