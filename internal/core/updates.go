package core

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/round"
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
//     answer set directly and triggers at most one candidate-promotion
//     round. This follows the paper's replica-of-SKY(H) design, with one
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
	rep, err := Run(ctx, c, opts)
	if err != nil {
		return nil, err
	}
	m := &Maintainer{
		cluster: c,
		view:    c.newView(nil, 0, transport.Query{Threshold: opts.Threshold, Dims: opts.Dims}),
		opts:    opts,
		sky:     make(map[uncertain.TupleID]uncertain.SkylineMember, len(rep.Skyline)),
		sites:   make(map[uncertain.TupleID]int, len(rep.Skyline)),
	}
	for _, member := range rep.Skyline {
		m.sky[member.Tuple.ID] = member
		m.sites[member.Tuple.ID] = rep.Sites[member.Tuple.ID]
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

// syncReplicas pushes one answer delta to every site.
func (m *Maintainer) syncReplicas(ctx context.Context, added []uncertain.Tuple, removed []uncertain.TupleID) error {
	if !m.replicated || (len(added) == 0 && len(removed) == 0) {
		return nil
	}
	adds := make([]transport.Representative, 0, len(added))
	for _, tu := range added {
		adds = append(adds, transport.Representative{Tuple: tu})
	}
	_, err := m.view.send(ctx, -1, transport.Request{
		Kind: transport.KindReplicate, Tuples: adds, RemoveIDs: removed,
	})
	return err
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
func (m *Maintainer) Insert(ctx context.Context, home int, tu uncertain.Tuple) error {
	fin := m.instr.begin(opInsert)
	err := m.insert(ctx, home, tu)
	fin(err)
	return err
}

func (m *Maintainer) insert(ctx context.Context, home int, tu uncertain.Tuple) error {
	if home < 0 || home >= m.cluster.Sites() {
		return fmt.Errorf("core: site %d out of range", home)
	}
	resps, err := m.view.send(ctx, home, transport.Request{
		Kind: transport.KindInsert, Tuple: tu, Query: m.view.query,
	})
	if err != nil {
		return err
	}
	resp := resps[home]
	local := resp.Rep.LocalProb

	var delta AnswerDelta
	var added []uncertain.Tuple
	if local >= m.opts.Threshold && !resp.Hopeless {
		global, err := m.globalProb(ctx, home, tu, local)
		if err != nil {
			return err
		}
		if global >= m.opts.Threshold {
			member := uncertain.SkylineMember{Tuple: tu.Clone(), Prob: global}
			m.sky[tu.ID] = member
			m.sites[tu.ID] = home
			added = append(added, tu.Clone())
			delta.Upserts = append(delta.Upserts, member)
			delta.UpsertSites = append(delta.UpsertSites, home)
		}
	}

	rescored := 0
	for id, member := range m.sky {
		if id == tu.ID {
			continue
		}
		if tu.Dominates(member.Tuple, m.opts.Dims) {
			rescored++
			member.Prob *= 1 - tu.Prob
			if member.Prob < m.opts.Threshold {
				delete(m.sky, id)
				delete(m.sites, id)
				delta.Removed = append(delta.Removed, id)
			} else {
				m.sky[id] = member
				delta.Upserts = append(delta.Upserts, member)
				delta.UpsertSites = append(delta.UpsertSites, m.sites[id])
			}
		}
	}
	m.instr.addRescored(rescored)
	m.instr.addAffected(len(added) + len(delta.Removed))
	if err := m.syncReplicas(ctx, added, delta.Removed); err != nil {
		return err
	}
	m.notify(delta)
	return nil
}

// Delete removes tu (which must currently live at site home) and updates
// the answer incrementally:
//
//  1. the home site drops the tuple from its index;
//  2. tu itself leaves the answer if present;
//  3. every member tu dominated is rescaled by 1/(1 − P(tu)) — their
//     probability only grew, so they all stay qualified;
//  4. non-members tu dominated may now qualify: each site reports the
//     formerly dominated tuples whose fresh local probability reaches q,
//     and the coordinator evaluates those candidates exactly.
func (m *Maintainer) Delete(ctx context.Context, home int, tu uncertain.Tuple) error {
	fin := m.instr.begin(opDelete)
	err := m.delete(ctx, home, tu)
	fin(err)
	return err
}

func (m *Maintainer) delete(ctx context.Context, home int, tu uncertain.Tuple) error {
	if home < 0 || home >= m.cluster.Sites() {
		return fmt.Errorf("core: site %d out of range", home)
	}
	if _, err := m.view.send(ctx, home, transport.Request{
		Kind: transport.KindDelete, ID: tu.ID, Point: tu.Point,
	}); err != nil {
		return err
	}
	var delta AnswerDelta
	var added []uncertain.Tuple
	if _, was := m.sky[tu.ID]; was {
		delta.Removed = append(delta.Removed, tu.ID)
	}
	delete(m.sky, tu.ID)
	delete(m.sites, tu.ID)

	if tu.Prob < 1 {
		rescored := 0
		for id, member := range m.sky {
			if tu.Dominates(member.Tuple, m.opts.Dims) {
				rescored++
				member.Prob /= 1 - tu.Prob
				if member.Prob > member.Tuple.Prob {
					// Numerical guard: a probability can never exceed the
					// tuple's own existential probability.
					member.Prob = member.Tuple.Prob
				}
				m.sky[id] = member
				delta.Upserts = append(delta.Upserts, member)
				delta.UpsertSites = append(delta.UpsertSites, m.sites[id])
			}
		}
		m.instr.addRescored(rescored)
	}

	// Promotion round: collect per-site candidates dominated by tu.
	resps, err := m.view.send(ctx, -1, transport.Request{
		Kind:  transport.KindCandidates,
		Feed:  transport.Feedback{Tuple: tu},
		Query: m.view.query,
	})
	if err != nil {
		return err
	}
	// The evaluations below reuse the buffer the candidates came back in.
	for siteIdx, resp := range slices.Clone(resps) {
		for _, cand := range resp.Tuples {
			if _, ok := m.sky[cand.Tuple.ID]; ok {
				continue // already a member (rescaled above)
			}
			global, err := m.globalProb(ctx, siteIdx, cand.Tuple, cand.LocalProb)
			if err != nil {
				return err
			}
			if global >= m.opts.Threshold {
				member := uncertain.SkylineMember{Tuple: cand.Tuple.Clone(), Prob: global}
				m.sky[cand.Tuple.ID] = member
				m.sites[cand.Tuple.ID] = siteIdx
				added = append(added, cand.Tuple.Clone())
				delta.Upserts = append(delta.Upserts, member)
				delta.UpsertSites = append(delta.UpsertSites, siteIdx)
			}
		}
	}
	m.instr.addAffected(len(added) + len(delta.Removed))
	if err := m.syncReplicas(ctx, added, delta.Removed); err != nil {
		return err
	}
	m.notify(delta)
	return nil
}

// Refresh is the naive maintenance strategy: re-run the entire distributed
// query from scratch and replace the answer.
func (m *Maintainer) Refresh(ctx context.Context) error {
	rep, err := Run(ctx, m.cluster, m.opts)
	if err != nil {
		return err
	}
	oldIDs := make([]uncertain.TupleID, 0, len(m.sky))
	for id := range m.sky {
		oldIDs = append(oldIDs, id)
	}
	m.sky = make(map[uncertain.TupleID]uncertain.SkylineMember, len(rep.Skyline))
	m.sites = make(map[uncertain.TupleID]int, len(rep.Skyline))
	added := make([]uncertain.Tuple, 0, len(rep.Skyline))
	for _, member := range rep.Skyline {
		m.sky[member.Tuple.ID] = member
		m.sites[member.Tuple.ID] = rep.Sites[member.Tuple.ID]
		added = append(added, member.Tuple)
	}
	// Resynchronise replicas wholesale: Refresh is also the recovery path
	// after ApplyNaive updates bypassed the incremental bookkeeping.
	if err := m.syncReplicas(ctx, added, oldIDs); err != nil {
		return err
	}
	members, siteIdx := m.Answer()
	m.notify(AnswerDelta{Upserts: members, UpsertSites: siteIdx, Removed: oldIDs, Full: true})
	return nil
}

// globalProb evaluates Lemma 1 for one tuple whose home-site local
// probability is already known: the round engine's Evaluate broadcast and
// fold, outside any query session.
func (m *Maintainer) globalProb(ctx context.Context, home int, tu uncertain.Tuple, local float64) (float64, error) {
	reqs := make([]round.Request, m.view.Len())
	round.Ask(reqs, home, round.Request{Op: round.OpEvaluate, Feed: round.Representative{Tuple: tu, LocalProb: local}})
	evals, err := m.view.Fanout(ctx, reqs)
	if err != nil {
		return 0, err
	}
	global, _ := round.Fold(local, home, evals, nil)
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
