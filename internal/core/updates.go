package core

import (
	"context"
	"fmt"

	"repro/internal/transport"
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
// stream, as in the paper.
type Maintainer struct {
	cluster    *Cluster
	view       *view
	opts       Options
	replicated bool
	stale      bool // an update failed after a site may have applied it
	sky        map[uncertain.TupleID]uncertain.SkylineMember
	sites      map[uncertain.TupleID]int
	instr      *maintInstr // optional; see Instrument / SetLatencyWindow
	onChange   func(AnswerDelta)
}

// AnswerDelta describes one mutation of the maintained answer set, in
// the vocabulary a materialized index needs: which members were added
// or re-scored (with their home sites), and which were evicted.
type AnswerDelta struct {
	// Upserts holds answer members that were added or whose global
	// probability changed; UpsertSites[i] is the home site of
	// Upserts[i].
	Upserts     []uncertain.SkylineMember
	UpsertSites []int
	// Removed lists tuples evicted from the answer.
	Removed []uncertain.TupleID
	// Full marks a wholesale replacement (Refresh): Upserts is the
	// complete new answer and Removed the complete old membership.
	Full bool
}

// SetOnChange registers fn to observe every answer mutation the
// maintainer applies (Insert, Delete, Refresh), synchronously, after
// the maintainer's own bookkeeping and replica sync. The serving tier
// uses it to keep the materialized skyline index positioned and
// versioned; nil unregisters. Like the maintainer itself, the callback
// runs on the updater's goroutine — it must not call back into the
// maintainer.
func (m *Maintainer) SetOnChange(fn func(AnswerDelta)) { m.onChange = fn }

// notify delivers a non-empty delta to the registered observer.
func (m *Maintainer) notify(d AnswerDelta) {
	if m.onChange == nil || (!d.Full && len(d.Upserts) == 0 && len(d.Removed) == 0) {
		return
	}
	m.onChange(d)
}

// Answer returns the current answer sorted by descending probability,
// with the aligned home-site index of each member.
func (m *Maintainer) Answer() ([]uncertain.SkylineMember, []int) {
	members := m.Skyline()
	sites := make([]int, len(members))
	for i, member := range members {
		sites[i] = m.sites[member.Tuple.ID]
	}
	return members, sites
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
		view:    c.newView(nil, 0, transport.Query{Threshold: opts.Threshold, Dims: opts.Dims}),
		opts:    opts,
		sky:     make(map[uncertain.TupleID]uncertain.SkylineMember),
		sites:   make(map[uncertain.TupleID]int),
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
	adds := make([]transport.Representative, 0, len(m.sky))
	for _, member := range m.sky {
		adds = append(adds, transport.Representative{Tuple: member.Tuple, LocalProb: member.Prob})
	}
	if _, err := m.view.send(ctx, -1, transport.Request{
		Kind: transport.KindReplicate, Tuples: adds,
	}); err != nil {
		return err
	}
	m.replicated = true
	return nil
}

// Skyline returns the current answer, sorted by descending probability.
func (m *Maintainer) Skyline() []uncertain.SkylineMember {
	out := make([]uncertain.SkylineMember, 0, len(m.sky))
	for _, member := range m.sky {
		out = append(out, member)
	}
	uncertain.SortMembers(out)
	return out
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
	resps, err := m.view.send(ctx, home, transport.Request{
		Kind: transport.KindInsert, Tuple: tu, Query: m.view.query,
	})
	if err != nil {
		return err
	}
	var delta AnswerDelta
	if local := resps[home].Rep.LocalProb; local >= m.opts.Threshold && !resps[home].Hopeless {
		global, err := m.evaluate(ctx, []candidate{{home, transport.Representative{Tuple: tu, LocalProb: local}}})
		if err != nil {
			return err
		}
		if global[0] >= m.opts.Threshold {
			delta.upsert(uncertain.SkylineMember{Tuple: tu.Clone(), Prob: global[0]}, home)
		}
	}
	rescored := 0
	for id, member := range m.sky {
		if id != tu.ID && tu.Dominates(member.Tuple, m.opts.Dims) {
			rescored++
			if member.Prob *= 1 - tu.Prob; member.Prob < m.opts.Threshold {
				delta.Removed = append(delta.Removed, id)
			} else {
				delta.upsert(member, m.sites[id])
			}
		}
	}
	return m.commit(ctx, delta, rescored)
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
	v := m.view
	for j := range v.wire {
		v.wire[j] = transport.Request{Kind: transport.KindCandidates, Feed: transport.Feedback{Tuple: tu}, Query: v.query}
	}
	v.wire[home] = transport.Request{Kind: transport.KindDelete, ID: tu.ID, Point: tu.Point, Query: v.query}
	resps, err := v.issue(ctx)
	if err != nil {
		return err
	}
	var cands []candidate
	for j, resp := range resps {
		for _, rep := range resp.Tuples {
			if _, member := m.sky[rep.Tuple.ID]; !member {
				cands = append(cands, candidate{j, rep})
			}
		}
	}
	var delta AnswerDelta
	if _, was := m.sky[tu.ID]; was {
		delta.Removed = append(delta.Removed, tu.ID)
	}
	rescored := 0
	for id, member := range m.sky {
		if tu.Prob < 1 && tu.Dominates(member.Tuple, m.opts.Dims) {
			rescored++
			// Numerical guard: a probability can never exceed the tuple's
			// own existential probability.
			member.Prob = min(member.Prob/(1-tu.Prob), member.Tuple.Prob)
			delta.upsert(member, m.sites[id])
		}
	}
	global, err := m.evaluate(ctx, cands)
	if err != nil {
		return err
	}
	for k, c := range cands {
		if global[k] >= m.opts.Threshold {
			delta.upsert(uncertain.SkylineMember{Tuple: c.rep.Tuple.Clone(), Prob: global[k]}, c.site)
		}
	}
	return m.commit(ctx, delta, rescored)
}

// prepare opens an incremental update at site home: from here until
// commit, a failure may leave a site ahead of the answer, so the next
// update Refreshes before it starts.
func (m *Maintainer) prepare(ctx context.Context, home int) error {
	if home < 0 || home >= m.cluster.Sites() {
		return fmt.Errorf("core: site %d out of range", home)
	}
	if m.stale {
		if err := m.Refresh(ctx); err != nil {
			return err
		}
	}
	m.stale = true
	return nil
}

// upsert adds one added or re-scored member to the delta.
func (d *AnswerDelta) upsert(member uncertain.SkylineMember, site int) {
	d.Upserts = append(d.Upserts, member)
	d.UpsertSites = append(d.UpsertSites, site)
}

// commit installs a delta once every wave of its update has succeeded:
// the replicas first (one small broadcast of what it adds and removes),
// then the answer, then the observer.
func (m *Maintainer) commit(ctx context.Context, d AnswerDelta, rescored int) error {
	var adds []transport.Representative
	for _, u := range d.Upserts {
		if _, member := m.sky[u.Tuple.ID]; d.Full || !member {
			adds = append(adds, transport.Representative{Tuple: u.Tuple})
		}
	}
	if m.replicated && len(adds)+len(d.Removed) > 0 {
		if _, err := m.view.send(ctx, -1, transport.Request{
			Kind: transport.KindReplicate, Tuples: adds, RemoveIDs: d.Removed,
		}); err != nil {
			return err
		}
	}
	for _, id := range d.Removed {
		delete(m.sky, id)
		delete(m.sites, id)
	}
	for i, u := range d.Upserts {
		m.sky[u.Tuple.ID], m.sites[u.Tuple.ID] = u, d.UpsertSites[i]
	}
	m.stale = false
	if !d.Full {
		m.instr.addRescored(rescored)
		m.instr.addAffected(len(adds) + len(d.Removed))
	}
	m.notify(d)
	return nil
}

// Refresh is the naive maintenance strategy: re-run the entire distributed
// query from scratch and replace the answer — replicas included, so it is
// also the recovery path after ApplyNaive or a failed update.
func (m *Maintainer) Refresh(ctx context.Context) error {
	rep, err := Run(ctx, m.cluster, m.opts)
	if err != nil {
		return err
	}
	d := AnswerDelta{Full: true}
	for id := range m.sky {
		d.Removed = append(d.Removed, id)
	}
	for _, member := range rep.Skyline {
		d.upsert(member, rep.Sites[member.Tuple.ID])
	}
	return m.commit(ctx, d, 0)
}

// candidate is a tuple an update may admit: its home site and its local
// skyline probability there.
type candidate struct {
	site int
	rep  transport.Representative
}

// evaluate is Lemma 1 for every candidate at once, in one fan-out: site j
// is sent one batched Evaluate of the candidates whose home is not j (none:
// nothing is sent), and each global probability folds local × Π_{j≠home}
// of the factors in ascending site order, exactly as the round engine
// folds one broadcast — the same numbers, bit for bit.
func (m *Maintainer) evaluate(ctx context.Context, cands []candidate) ([]float64, error) {
	v := m.view
	for j := range v.wire {
		v.wire[j] = transport.Request{}
		for _, c := range cands {
			if c.site != j {
				v.wire[j].Tuples = append(v.wire[j].Tuples, c.rep)
			}
		}
		if len(v.wire[j].Tuples) > 0 {
			v.wire[j].Kind, v.wire[j].Query = transport.KindEvaluate, v.query
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
	req := transport.Request{Kind: transport.KindDelete, ID: tu.ID, Point: tu.Point}
	if insert {
		req = transport.Request{Kind: transport.KindInsert, Tuple: tu, Query: m.view.query}
	}
	_, err := m.view.send(ctx, home, req)
	return err
}
