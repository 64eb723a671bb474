// Package round is the paper's §5 in code: the coordinator side of the
// shipping Baseline (§3.2), DSUD (§5.1), e-DSUD (§5.2) and the §5.4
// update maintenance as one deterministic engine. Sites go in behind a
// two-method interface that speaks the protocol's own messages
// (internal/msg), the options that change the algorithm go in beside
// them, every step a query takes comes out through one synchronous
// callback, and the Outcome (an update's Update) is a pure function of
// the sites' replies. The engine keeps no clock, no log and no metric:
// whatever watches a query — timing, profiling labels, delivery curves,
// the progressive result stream — subscribes to the step stream from
// internal/core, and make check fails if this package comes to depend on
// the observability tree.
package round

import (
	"context"
	"slices"

	"repro/internal/msg"
	"repro/internal/prtree"
	"repro/internal/serve"
	"repro/internal/uncertain"
)

// Sites is the engine's whole view of the cluster. The engine speaks the
// protocol's own messages but fills only what the algorithm decides: each
// slot's Kind, an evaluate's Feed and Refill or its batch of Tuples, and
// an update's tuple, deletion or replica change.
// Implementations bind the query's session, threshold and subspace to the
// messages.
type Sites interface {
	// Len is the number of sites; they are indexed from 0.
	Len() int
	// Fanout sends reqs[i] to site i for every slot that holds a request
	// (Kind 0 sends nothing), all at once, and returns the replies indexed
	// the same way once the last has arrived; an empty slot's reply is
	// nil. One slot per site means no fan-out addresses a site twice: each
	// site sees its requests in the order the engine issued them, whatever
	// the network does across sites. The reply slice is the
	// implementation's to reuse: it is valid until the next Fanout.
	Fanout(ctx context.Context, reqs []msg.Request) ([]*msg.Response, error)
}

// Summaries is what a Sites may also be: the keeper of the sites'
// summaries (msg.Summary), which hands each out with its index
// (msg.Index), built once for as long as it keeps the summary. After a
// query's Init, Summary is the index of the summary site's Init reply
// carried; for an update, the index of its summary of site on the
// updates' subspace, by which an update sends its candidates only to the
// sites that may hold a dominator of one of them. A site it holds none for
// (nil) is asked everything. A query over a Sites that keeps none routes
// by indexes it builds from the Init replies.
type Summaries interface {
	Summary(site int) *msg.Index
}

// Options are the settings that change what the algorithm does.
type Options struct {
	// Threshold is the paper's q; Dims restricts dominance to a subspace
	// (nil = full space).
	Threshold float64
	Dims      []int
	// Enhanced selects e-DSUD: the Corollary-2 bounds drive the feedback
	// selection and the expunge-without-broadcast rule. False is DSUD,
	// whose feedback is the queue head by local skyline probability.
	Enhanced bool
	// RoundRobin cycles the feedback through the sites regardless of
	// bounds, and DisableExpunge keeps e-DSUD from dropping candidates
	// below q; both are ablation controls.
	RoundRobin     bool
	DisableExpunge bool
	// MaxResults stops the run after that many reports. TopK keeps the K
	// most probable answers, raising the working threshold to the K-th
	// best confirmed probability.
	MaxResults int
	TopK       int
	// NoPrune says the sites do not prune by feedback (msg.Query.NoPrune),
	// so a site an evaluate skips is owed nothing.
	NoPrune bool
	// Replicas says the sites hold replicas of a maintained answer, which
	// Insert and Delete keep in sync (§5.4).
	Replicas bool
	// Known resumes Run from an answer already held: every tuple whose
	// global skyline probability reaches some floor above Threshold, each
	// at its exact probability, home site and home local probability
	// (serve.Entry.Local). Run reports them first, then its Init tells
	// each site which known members it holds, so they never ship, and
	// carries it the others as feedback, so it prunes by them at once:
	// the round runs only over the band below the floor. Neither
	// MaxResults nor TopK may be set with it.
	Known []serve.Entry
}

// SiteTally is one site's slice of a run's cost.
type SiteTally struct {
	// Shipped counts representatives the site sent up (Init plus
	// refills; for the Baseline, its whole partition).
	Shipped int64
	// Pruned counts local skyline tuples the site discarded under
	// Observation-2 feedback pruning.
	Pruned int64
}

// Outcome is what a run computed.
type Outcome struct {
	// Skyline holds the qualified tuples with their exact global skyline
	// probabilities, sorted by descending probability and cut to TopK.
	Skyline []uncertain.SkylineMember
	// Sites maps each reported tuple ID to its home site index.
	Sites map[uncertain.TupleID]int
	Tally
	// PerSite breaks Shipped/Pruned down by site index.
	PerSite []SiteTally
	// Local maps each tuple a DSUD-family run reported to its home-site
	// local skyline probability P_sky(t, D_home), which a maintained
	// answer keeps beside the global one (serve.Entry.Local).
	Local map[uncertain.TupleID]float64
	// FeedbackLocal records, in broadcast order, the home-site local
	// skyline probability of every feedback tuple. Under plain DSUD with
	// the algorithm's own selection rule this sequence is non-increasing
	// (sites ship in descending order and refills only add values no
	// larger than the popped head) — the invariant the online auditor
	// spot-checks.
	FeedbackLocal []float64
}

// fold is Lemma 1: the global skyline probability of a tuple is its
// home-site local probability times every other site's eq. 9 factor,
// factor(j), in ascending site order. A site that was not asked (route)
// holds no dominator of the tuple: its factor is exactly 1, and a product
// times 1 keeps every bit. Queries and updates both fold here.
func fold(local float64, home, sites int, factor func(site int) float64) float64 {
	global := local
	for j := range sites {
		if j != home {
			global *= factor(j)
		}
	}
	return global
}

// route decides which sites an evaluate of a tuple goes to: a site whose
// summary dominates nothing of the tuple holds no dominator of it (see
// msg.Summary), so its eq. 9 factor is exactly 1 and it is not asked. A
// site with no summary, or one of the wrong width, is asked everything.
// Each summary is searched through its index (msg.Index).
type route struct {
	index []*msg.Index
	dims  []int     // the subspace in ascending order; nil: the full space
	q     []float64 // the tuple being routed, projected (to)
}

func newRoute(dims []int, sites int) route {
	r := route{index: make([]*msg.Index, sites)}
	if dims != nil {
		r.dims = slices.Clone(dims)
		slices.Sort(r.dims)
	}
	return r
}

// set makes site routed by s, the summary its Init reply carried: by the
// index keeper keeps of it or, without a keeper, one built here.
func (r *route) set(site int, s msg.Summary, keeper Summaries) {
	if keeper != nil {
		r.index[site] = keeper.Summary(site)
	} else {
		r.index[site] = s.Index()
	}
}

// to makes t the tuple holds asks about.
func (r *route) to(t uncertain.Tuple) { r.q = msg.Project(r.q[:0], t.Point, r.dims) }

// holds says whether site may hold a dominator of the tuple (to).
func (r *route) holds(site int) bool {
	x := r.index[site]
	return x == nil || x.Width != len(r.q) || x.Dominates(r.q)
}

// waits is how a query or an update reaches the sites: the next
// fan-out's slots, empty between waits.
type waits struct {
	sites Sites
	reqs  []msg.Request
}

func newWaits(sites Sites) waits { return waits{sites, make([]msg.Request, sites.Len())} }

// fanout is the one way to wait: it sends the filled slots and empties
// them for the next wait.
func (w *waits) fanout(ctx context.Context) ([]*msg.Response, error) {
	resps, err := w.sites.Fanout(ctx, w.reqs)
	clear(w.reqs)
	return resps, err
}

// engine is the state of one run.
type engine struct {
	waits
	opts  Options
	on    func(Step)
	out   *Outcome
	open  []Phase  // phases begun and not yet ended, innermost last
	queue []queued // each site's current representative
	// victims is one expunge wave: candidates out of the queue whose sites
	// owe a refill. Between a Feedback-Select phase and the broadcast it
	// follows, it holds the wave whose refills ride that broadcast.
	victims []queued
	// route holds the summaries the sites' Init replies carried; asked
	// marks the sites the current broadcast's evaluate went to.
	route route
	asked []bool
	// owed[j] is the feedback site j was not sent, in broadcast order,
	// which the next request sent to it carries to prune by (carry), and
	// carried[j] how many the last carry put in its slot; spare[j] is the
	// list the carry before that sent, which owed[j] reuses after it; done[j]
	// says j's local skyline is exhausted, which leaves nothing to prune.
	owed, spare [][]msg.Representative
	carried     []int
	done        []bool
	// dominates[x·m+y] says site x's queued representative dominates site
	// y's, for e-DSUD's bounds: a site has at most one representative
	// queued, and enqueue refreshes its row and column (recomputeBounds).
	dominates []bool
}

func newEngine(sites Sites, opts Options, on func(Step)) *engine {
	m := sites.Len()
	return &engine{waits: newWaits(sites), opts: opts, on: on, out: &Outcome{
		Sites:   make(map[uncertain.TupleID]int),
		Local:   make(map[uncertain.TupleID]float64),
		PerSite: make([]SiteTally, m),
	}, route: newRoute(opts.Dims, m), asked: make([]bool, m),
		owed: make([][]msg.Representative, m), spare: make([][]msg.Representative, m),
		carried: make([]int, m), done: make([]bool, m), dominates: make([]bool, m*m)}
}

// ask puts req in every slot of a fan-out but skip's (negative: all).
func ask(reqs []msg.Request, skip int, req msg.Request) {
	for i := range reqs {
		if i != skip {
			reqs[i] = req
		}
	}
}

func (e *engine) step(s Step) {
	e.out.Observe(s)
	if e.on != nil {
		e.on(s)
	}
}

func (e *engine) begin(p Phase) {
	e.open = append(e.open, p)
	e.step(Step{Kind: StepBegin, Phase: p})
}

func (e *engine) end() {
	last := len(e.open) - 1
	e.step(Step{Kind: StepEnd, Phase: e.open[last]})
	e.open = e.open[:last]
}

// event stamps ev with the current iteration and phase and emits it.
func (e *engine) event(ev Event) {
	ev.Iteration = e.out.Iterations
	e.step(Step{Phase: e.open[len(e.open)-1], Event: ev})
}

// report admits one qualified tuple and says whether MaxResults is met.
func (e *engine) report(site int, m uncertain.SkylineMember) (full bool) {
	e.out.Skyline = append(e.out.Skyline, m)
	e.out.Sites[m.Tuple.ID] = site
	e.event(Event{Kind: EventReport, Site: site, Tuple: m.Tuple, Prob: m.Prob})
	return e.opts.MaxResults > 0 && len(e.out.Skyline) >= e.opts.MaxResults
}

// finish puts the answer in report order and applies the TopK cut.
func (e *engine) finish() *Outcome {
	uncertain.SortMembers(e.out.Skyline)
	if e.opts.TopK > 0 && len(e.out.Skyline) > e.opts.TopK {
		e.out.Skyline = e.out.Skyline[:e.opts.TopK]
	}
	return e.out
}

// Baseline ships every partition to the coordinator and solves eq. 5
// centrally over a bulk-loaded PR-tree. The central solve is its analogue
// of local pruning.
func Baseline(ctx context.Context, sites Sites, opts Options, on func(Step)) (*Outcome, error) {
	e := newEngine(sites, opts, on)
	e.begin(PhaseToServer)
	ask(e.reqs, -1, msg.Request{Kind: msg.KindShipAll})
	resps, err := e.fanout(ctx)
	e.end()
	if err != nil {
		return nil, err
	}
	e.begin(PhaseLocalPruning)
	var union uncertain.DB
	home := make(map[uncertain.TupleID]int)
	for i, resp := range resps {
		e.out.PerSite[i].Shipped = int64(len(resp.Tuples))
		for _, rep := range resp.Tuples {
			union = append(union, rep.Tuple)
			home[rep.Tuple.ID] = i
		}
	}
	if len(union) > 0 {
		index := prtree.Bulk(union, len(union[0].Point), 0)
		index.LocalSkylineFunc(opts.Threshold, opts.Dims, func(m uncertain.SkylineMember) bool {
			return !e.report(home[m.Tuple.ID], m) && ctx.Err() == nil
		})
	}
	e.end()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return e.finish(), nil
}

// queued is one coordinator-side candidate: a site's current
// representative, annotated with the Corollary-2 upper bound on its global
// skyline probability (for DSUD the bound simply mirrors the local
// probability, so both algorithms share one selection loop), and the
// Observation-2 factor P_sky(t, D_x)/P(t) × (1 − P(t)) it puts on the
// bound of each candidate it dominates.
type queued struct {
	site   int
	rep    msg.Representative
	bound  float64
	factor float64
}

// Run executes the iterative protocol of §5: DSUD, or e-DSUD with
// opts.Enhanced.
func Run(ctx context.Context, sites Sites, opts Options, on func(Step)) (*Outcome, error) {
	return newEngine(sites, opts, on).run(ctx)
}

func (e *engine) run(ctx context.Context) (*Outcome, error) {
	opts := e.opts
	e.resume()
	// To-Server phase, first iteration: every site initialises and ships
	// its first representative (§4 step 1), after pruning by whatever
	// known answer its Init carries.
	e.begin(PhaseToServer)
	ask(e.reqs, -1, msg.Request{Kind: msg.KindInit})
	e.carryKnown()
	resps, err := e.fanout(ctx)
	if err != nil {
		e.end()
		return nil, err
	}
	keeper, _ := e.sites.(Summaries)
	for i, resp := range resps {
		e.route.set(i, resp.Summary, keeper)
		if !resp.Exhausted {
			e.enqueue(i, resp.Rep)
		}
		e.done[i] = resp.Exhausted
	}
	e.pruned(resps)
	e.end()

	lastSite := -1
	for len(e.queue) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		e.begin(PhaseFeedbackSelect)
		head, ok, err := e.selectFeedback(ctx, lastSite)
		e.end()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		lastSite = head.site

		// Server-Delivery phase: send the feedback to the other sites
		// that may hold a dominator of it, collect their eq. 9 factors
		// (Lemma 1) and prune remotely; every other site is owed it, to
		// prune by before it next answers. The home site's Next rides the
		// same fan-out — nothing in it depends on the verdict — unless
		// this round's report could be the last one asked for: no tuple
		// ships that the answer never needed. So does each deferred
		// victim's refill, as the Refill bit of the evaluate its site is
		// sent, or as a Next when it is sent none.
		e.begin(PhaseServerDelivery)
		down := e.deliver(head)
		for _, victim := range e.victims {
			if r := &e.reqs[victim.site]; r.Kind == msg.KindEvaluate {
				r.Refill = true
			} else {
				*r = msg.Request{Kind: msg.KindNext}
			}
		}
		ahead := e.ahead()
		if ahead {
			e.reqs[head.site] = msg.Request{Kind: msg.KindNext}
		}
		down += e.carry()
		evals, err := e.fanout(ctx)
		e.end()
		if err != nil {
			return nil, err
		}

		// Local-Pruning phase, coordinator side: fold the sites' eq. 9
		// factors and prune counts into the verdict.
		e.begin(PhaseLocalPruning)
		e.out.FeedbackLocal = append(e.out.FeedbackLocal, head.rep.LocalProb)
		e.event(Event{Kind: EventBroadcast, Site: head.site, Tuple: head.rep.Tuple, Prob: head.rep.LocalProb, Down: down})
		global := fold(head.rep.LocalProb, head.site, len(evals), func(j int) float64 {
			if !e.asked[j] {
				return 1
			}
			return evals[j].CrossProb
		})
		e.pruned(evals)
		full := false
		if global >= opts.Threshold {
			e.out.Local[head.rep.Tuple.ID] = head.rep.LocalProb
			full = e.report(head.site, uncertain.SkylineMember{Tuple: head.rep.Tuple, Prob: global})
		} else {
			e.event(Event{Kind: EventReject, Site: head.site, Tuple: head.rep.Tuple, Prob: global})
		}
		e.end()
		if full {
			break
		}
		// The home site's next representative joins the queue (To-Server
		// phase of the following iteration), fetched now if it was held
		// back, and then the deferred victims' refills.
		e.begin(PhaseToServer)
		down = 0
		if !ahead {
			e.reqs[head.site] = msg.Request{Kind: msg.KindNext}
			down = e.carry()
			if evals, err = e.fanout(ctx); err != nil {
				return nil, err
			}
			e.pruned(evals)
		}
		e.admit(head.site, evals[head.site], down)
		for _, victim := range e.victims {
			e.admit(victim.site, evals[victim.site], 0)
		}
		e.victims = e.victims[:0]
		e.end()
	}
	return e.finish(), nil
}

// resume reports a resumed run's known answer at once, in the order
// given, as one Server-Delivery phase ahead of Init.
func (e *engine) resume() {
	if len(e.opts.Known) == 0 {
		return
	}
	e.begin(PhaseServerDelivery)
	for _, k := range e.opts.Known {
		e.out.Local[k.Member.Tuple.ID] = k.Local
		e.report(k.Site, k.Member)
	}
	e.end()
}

// carryKnown fills each site's Init with the known answer: the IDs of the
// members it holds, which it will not ship, and every other member as
// feedback at its home local probability, which it prunes by. A member
// never prunes at its own home, where its dominators already weigh on
// every tuple it dominates.
func (e *engine) carryKnown() {
	for i := range e.reqs {
		req := &e.reqs[i]
		for _, k := range e.opts.Known {
			if k.Site == i {
				req.RemoveIDs = append(req.RemoveIDs, k.Member.Tuple.ID)
			} else {
				req.Tuples = append(req.Tuples, msg.Representative{Tuple: k.Member.Tuple, LocalProb: k.Local})
			}
		}
	}
}

// deliver fills the broadcast of head's tuple: an evaluate for each other
// site whose route says it may hold a dominator of it, and the tuple onto
// the owed list of each site skipped, unless sites do not prune or that
// one is exhausted. It marks the asked sites and returns how many.
func (e *engine) deliver(head queued) (asked int) {
	feed := msg.Feedback{Tuple: head.rep.Tuple, HomeLocalProb: head.rep.LocalProb}
	e.route.to(feed.Tuple)
	for j := range e.reqs {
		e.asked[j] = j != head.site && e.route.holds(j)
		switch {
		case e.asked[j]:
			e.reqs[j] = msg.Request{Kind: msg.KindEvaluate, Feed: feed}
			asked++
		case j != head.site && !e.opts.NoPrune && !e.done[j]:
			e.owed[j] = append(e.owed[j], head.rep)
		}
	}
	return asked
}

// carry hands every site sent a request in the coming fan-out the feedback
// it is owed, in its request's Tuples, and returns how many tuples that
// sends down (per site in carried). The list handed over is the site's
// spare from then on, and the spare the next list it is owed: Sites may
// hold a request until its next fan-out returns (core's view keeps its
// slots until then), and a list is written again only after the fan-out
// that follows the one it rode.
func (e *engine) carry() (down int) {
	for j := range e.reqs {
		e.carried[j] = 0
		if e.reqs[j].Kind != 0 && len(e.owed[j]) > 0 {
			e.reqs[j].Tuples = e.owed[j]
			e.owed[j], e.spare[j] = e.spare[j][:0], e.owed[j]
			e.carried[j] = len(e.reqs[j].Tuples)
			down += e.carried[j]
		}
	}
	return down
}

// pruned folds a fan-out's prune counts into the per-site tallies (each
// reply's session total, which only grows) and announces their sum.
func (e *engine) pruned(resps []*msg.Response) {
	sum := 0
	for i, r := range resps {
		if r != nil {
			sum += r.Pruned
			e.out.PerSite[i].Pruned = max(e.out.PerSite[i].Pruned, int64(r.SessionPruned))
		}
	}
	if sum > 0 {
		e.event(Event{Kind: EventPrune, Site: -1, Count: sum})
	}
}

// ahead says whether this round's report, if any, leaves MaxResults
// unmet, so that a refill fetched with its broadcast cannot be one the
// answer never needed.
func (e *engine) ahead() bool {
	return e.opts.MaxResults <= 0 || len(e.out.Skyline)+1 < e.opts.MaxResults
}

// enqueue admits site's representative to the queue. Its bound starts at
// the Corollary-1 value (the local skyline probability); recomputeBounds
// tightens it for e-DSUD, by the dominance between it and every other
// queued representative, which enqueue tests once, here.
func (e *engine) enqueue(site int, rep msg.Representative) {
	t := rep.Tuple
	c := queued{site: site, rep: rep, bound: rep.LocalProb, factor: rep.LocalProb / t.Prob * (1 - t.Prob)}
	if e.opts.Enhanced {
		m := len(e.done)
		for _, o := range e.queue {
			e.dominates[site*m+o.site] = t.Dominates(o.rep.Tuple, e.opts.Dims)
			e.dominates[o.site*m+site] = o.rep.Tuple.Dominates(t, e.opts.Dims)
		}
	}
	e.queue = append(e.queue, c)
	e.out.PerSite[site].Shipped++
	e.event(Event{Kind: EventToServer, Site: site, Tuple: rep.Tuple, Prob: rep.LocalProb})
}

// admit takes site's reply to a next, or to an evaluate with a refill: its
// next representative joins the queue, unless its local skyline is
// exhausted. down is what the request carried down, when it was a next
// of its own.
func (e *engine) admit(site int, resp *msg.Response, down int) {
	if resp.Exhausted {
		e.done[site] = true
		e.event(Event{Kind: EventRefill, Site: site, Down: down})
		return
	}
	e.event(Event{Kind: EventRefill, Site: site, Tuple: resp.Rep.Tuple, Prob: resp.Rep.LocalProb, Count: 1, Down: down})
	e.enqueue(site, resp.Rep)
}

// selectFeedback is one Feedback-Select phase: refresh the bounds, sweep
// out the candidates that cannot qualify, and pop the next feedback. ok
// is false when the run is over: the queue drained, or a termination
// rule fired.
func (e *engine) selectFeedback(ctx context.Context, lastSite int) (head queued, ok bool, err error) {
	e.recomputeBounds()
	// Top-k mode keeps the K best confirmed answers; the working
	// threshold rises to the K-th best probability, which both tightens
	// the expunge rule and triggers early termination.
	working, sky := e.opts.Threshold, e.out.Skyline
	if k := e.opts.TopK; k > 0 && len(sky) >= k {
		uncertain.SortMembers(sky)
		working = max(working, sky[k-1].Prob)
	}

	if e.opts.Enhanced && !e.opts.DisableExpunge {
		// Expunge phase: candidates whose global upper bound cannot reach
		// q, by the outward margin (uncertain.BoundBelow), are dropped
		// without any broadcast and their home sites refill (§5.2). When
		// a scan leaves a survivor, the victims' refills ride
		// the coming broadcast (Run) and the feedback is picked from the
		// survivors on the bounds just computed — still sound, since each
		// victim is a real tuple of its site (Corollary 2). Otherwise, and
		// always under top-k or when this round's report could be the last
		// one asked for, all the victims of one scan refill in one fan-out
		// of their own. The scan then runs on into what that wave appended
		// — a top-k refill can arrive already below the working threshold —
		// and starts over, on recomputed bounds, once it finds nothing more.
		deferrable := e.opts.TopK <= 0 && e.ahead()
		for from, dropped := 0, false; ; {
			kept, victims := e.queue[:from], e.victims[:0]
			for _, c := range e.queue[from:] {
				if uncertain.BoundBelow(c.bound, working) {
					victims = append(victims, c)
				} else {
					kept = append(kept, c)
				}
			}
			e.queue, e.victims, from = kept, victims, len(kept)
			if len(victims) == 0 {
				if !dropped {
					break
				}
				e.recomputeBounds()
				from, dropped = 0, false
				continue
			}
			if deferrable && len(kept) > 0 {
				for _, victim := range victims {
					e.event(Event{Kind: EventExpunge, Site: victim.site, Tuple: victim.rep.Tuple, Prob: victim.bound})
				}
				break
			}
			for _, victim := range victims {
				e.reqs[victim.site] = msg.Request{Kind: msg.KindNext}
			}
			e.carry()
			resps, err := e.fanout(ctx)
			if err != nil {
				return head, false, err
			}
			e.pruned(resps)
			dropped = true
			for _, victim := range victims {
				e.event(Event{Kind: EventExpunge, Site: victim.site, Tuple: victim.rep.Tuple, Prob: victim.bound})
				e.begin(PhaseToServer)
				e.admit(victim.site, resps[victim.site], e.carried[victim.site])
				e.end()
			}
		}
		if len(e.queue) == 0 {
			return head, false, nil
		}
	}

	// By default the feedback is the queue maximum by bound (for DSUD the
	// bound is the local skyline probability, exactly §5.1's rule).
	best := e.pick(lastSite)
	head = e.queue[best]
	e.queue = append(e.queue[:best], e.queue[best+1:]...)
	// Corollary 1 termination for DSUD: every unseen tuple's global
	// probability is bounded by the head's local probability.
	if !e.opts.Enhanced && head.rep.LocalProb < working {
		return head, false, nil
	}
	// Top-k early termination: when even the best remaining bound cannot
	// displace the current K-th answer, the top-k is final.
	if e.opts.TopK > 0 && len(sky) >= e.opts.TopK && head.bound < working {
		return head, false, nil
	}
	e.event(Event{Kind: EventFeedbackSelect, Site: head.site, Tuple: head.rep.Tuple, Prob: head.bound})
	return head, true, nil
}

// recomputeBounds refreshes each queued candidate's upper bound. For DSUD
// the bound is Corollary 1 (the local skyline probability). For e-DSUD it
// is Corollary 2: the local probability multiplied, in queue order, for
// every *other* site whose queued representative dominates the candidate,
// by that representative's Observation-2 factor. Which ones dominate is
// read from the matrix enqueue keeps, so a refresh tests no dominance.
func (e *engine) recomputeBounds() {
	queue, m := e.queue, len(e.done)
	for k := range queue {
		queue[k].bound = queue[k].rep.LocalProb
	}
	if !e.opts.Enhanced {
		return
	}
	for k := range queue {
		s := &queue[k]
		for _, t := range queue {
			if t.site != s.site && e.dominates[t.site*m+s.site] {
				s.bound *= t.factor
			}
		}
	}
}

// pick returns the queue index to broadcast next: the largest bound, or
// under RoundRobin the smallest site index strictly greater than
// lastSite, cycling back to the smallest of all.
func (e *engine) pick(lastSite int) int {
	queue := e.queue
	best, next := 0, -1
	for k := range queue {
		switch {
		case !e.opts.RoundRobin:
			if queue[k].bound > queue[best].bound {
				best = k
			}
		case queue[k].site > lastSite && (next == -1 || queue[k].site < queue[next].site):
			next = k
		case queue[k].site < queue[best].site:
			best = k
		}
	}
	if next >= 0 {
		return next
	}
	return best
}
