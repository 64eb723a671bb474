package round

import (
	"context"
	"fmt"

	"repro/internal/msg"
	"repro/internal/serve"
	"repro/internal/uncertain"
)

// Update is what one §5.4 update does to the maintained answer: the
// members it rescales and the tuples it admits, each with its home site,
// the members that leave, how many members took its eq. 5 factor, and
// how many joined or left. The engine reads the answer and never writes
// it: installing an Update, in one serve.Store.Apply, is the caller's.
type Update struct {
	Upserts           []serve.Entry
	Removed           []uncertain.TupleID
	Rescored, Changed int
}

// update is the state of one §5.4 update.
type update struct {
	waits
	Update
	opts   Options
	answer *serve.Store
}

// Insert adds tu at site home in at most two waits: the home site applies
// it and reports tu's local skyline probability (and whether its replica
// vetoes tu); if that reaches q unvetoed, the other sites evaluate tu. A
// member tu dominates is rescaled by 1 − P(tu), and so is its local
// probability when it lives at home too, and evicted below q; non-members
// only lose probability, so the update is exact.
func Insert(ctx context.Context, sites Sites, opts Options, answer *serve.Store, home int, tu uncertain.Tuple) (Update, error) {
	u := &update{waits: newWaits(sites), opts: opts, answer: answer}
	u.reqs[home] = msg.Request{Kind: msg.KindInsert, Tuple: tu}
	resps, err := u.fanout(ctx)
	if err != nil {
		return Update{}, err
	}
	var cands []serve.Entry
	if local := resps[home].Rep.LocalProb; local >= opts.Threshold && !resps[home].Hopeless {
		cands = append(cands, serve.Entry{Member: uncertain.SkylineMember{Tuple: tu, Prob: local}, Site: home, Local: local})
	}
	for _, e := range answer.Entries() {
		if e.Member.Tuple.ID != tu.ID && tu.Dominates(e.Member.Tuple, opts.Dims) {
			u.Rescored++
			if e.Site == home {
				e.Local *= 1 - tu.Prob
			}
			if e.Member.Prob *= 1 - tu.Prob; e.Member.Prob < opts.Threshold {
				u.Removed = append(u.Removed, e.Member.Tuple.ID)
			} else {
				u.Upserts = append(u.Upserts, e)
			}
		}
	}
	return u.commit(ctx, cands)
}

// Delete removes tu from site home in at most two waits: the home site
// applies it and reports its promotion candidates (tuples tu dominated
// whose local probability now reaches q) beside every other site's, and
// then the candidates not already members are evaluated, all at once. tu
// leaves the answer; a member it dominated is rescaled by 1/(1 − P(tu)),
// and so is its local probability when it lives at home too.
// The promotion check runs even when tu was no member, unlike the
// paper's: deleting any strong dominator can promote.
func Delete(ctx context.Context, sites Sites, opts Options, answer *serve.Store, home int, tu uncertain.Tuple) (Update, error) {
	u := &update{waits: newWaits(sites), opts: opts, answer: answer}
	ask(u.reqs, home, msg.Request{Kind: msg.KindCandidates, Feed: msg.Feedback{Tuple: tu}})
	u.reqs[home] = msg.Request{Kind: msg.KindDelete, ID: tu.ID, Point: tu.Point}
	resps, err := u.fanout(ctx)
	if err != nil {
		return Update{}, err
	}
	// Copied out now: the evaluate wave may reuse the reply slice.
	var cands []serve.Entry
	for j, resp := range resps {
		for _, rep := range resp.Tuples {
			if !answer.Has(rep.Tuple.ID) {
				cands = append(cands, serve.Entry{Member: uncertain.SkylineMember{Tuple: rep.Tuple, Prob: rep.LocalProb}, Site: j, Local: rep.LocalProb})
			}
		}
	}
	for _, e := range answer.Entries() {
		if e.Member.Tuple.ID == tu.ID {
			u.Removed = append(u.Removed, tu.ID)
		} else if tu.Prob < 1 && tu.Dominates(e.Member.Tuple, opts.Dims) {
			u.Rescored++
			// Numerical guard: a probability can never exceed the tuple's
			// own existential probability.
			e.Member.Prob = min(e.Member.Prob/(1-tu.Prob), e.Member.Tuple.Prob)
			if e.Site == home {
				e.Local = min(e.Local/(1-tu.Prob), e.Member.Tuple.Prob)
			}
			u.Upserts = append(u.Upserts, e)
		}
	}
	return u.commit(ctx, cands)
}

// admit evaluates every candidate — a tuple an update may admit, at its
// home site's local skyline probability — at once, and upserts those
// whose global probability reaches q. Site j is sent one batched evaluate
// of the candidates homed elsewhere, in order, when its summary (see
// Summaries) may dominate one of them, and nothing otherwise; each
// candidate folds its factors as a query's broadcast does. The test is
// per site, not per candidate: scanning every summary for every candidate
// of a delete that promotes hundreds costs the coordinator more than the
// evaluations it would spare the sites, and the first candidate a summary
// dominates settles a site.
func (u *update) admit(ctx context.Context, cands []serve.Entry) error {
	if len(cands) == 0 {
		return nil
	}
	r := newRoute(u.opts.Dims, len(u.reqs))
	if s, ok := u.sites.(Summaries); ok {
		for j := range r.index {
			r.index[j] = s.Summary(j)
		}
	}
	asked := make([]bool, len(u.reqs))
	for _, c := range cands {
		r.to(c.Member.Tuple)
		for j := range asked {
			asked[j] = asked[j] || c.Site != j && r.holds(j)
		}
	}
	sent := make([]int, len(u.reqs))
	for j := range u.reqs {
		for _, c := range cands {
			if asked[j] && c.Site != j {
				u.reqs[j].Tuples = append(u.reqs[j].Tuples, msg.Representative{Tuple: c.Member.Tuple, LocalProb: c.Member.Prob})
			}
		}
		if sent[j] = len(u.reqs[j].Tuples); sent[j] > 0 {
			u.reqs[j].Kind = msg.KindEvaluate
		}
	}
	resps, err := u.fanout(ctx)
	if err != nil {
		return err
	}
	for j, resp := range resps {
		if resp != nil && len(resp.CrossProbs) != sent[j] {
			return fmt.Errorf("round: site %d evaluate: %d factors for %d candidates", j, len(resp.CrossProbs), sent[j])
		}
	}
	next := make([]int, len(resps))
	for _, c := range cands {
		c.Member.Prob = fold(c.Member.Prob, c.Site, len(resps), func(j int) float64 {
			if !asked[j] {
				return 1
			}
			next[j]++
			return resps[j].CrossProbs[next[j]-1]
		})
		if c.Member.Prob >= u.opts.Threshold {
			c.Member.Tuple = c.Member.Tuple.Clone()
			u.Upserts = append(u.Upserts, c)
		}
	}
	return nil
}

// commit admits the candidates, counts the membership changes and, with
// opts.Replicas, sends the replicas what the update adds and removes.
func (u *update) commit(ctx context.Context, cands []serve.Entry) (Update, error) {
	if err := u.admit(ctx, cands); err != nil {
		return Update{}, err
	}
	var adds []msg.Representative
	for _, e := range u.Upserts {
		if !u.answer.Has(e.Member.Tuple.ID) {
			adds = append(adds, msg.Representative{Tuple: e.Member.Tuple})
		}
	}
	u.Changed = len(adds) + len(u.Removed)
	if u.opts.Replicas && u.Changed > 0 {
		if err := Replicate(ctx, u.sites, adds, u.Removed); err != nil {
			return Update{}, err
		}
	}
	return u.Update, nil
}

// Replicate sends every site's replica of the answer one change (§5.4:
// "we duplicate SKY(H) at all local sites"), in one broadcast.
func Replicate(ctx context.Context, sites Sites, adds []msg.Representative, removed []uncertain.TupleID) error {
	w := newWaits(sites)
	ask(w.reqs, -1, msg.Request{Kind: msg.KindReplicate, Tuples: adds, RemoveIDs: removed})
	_, err := w.fanout(ctx)
	return err
}
