package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// A span is one timed interval at a layer boundary. The benchmark
// records three kinds from its own decorators: a root span around each
// public call ("query", "update", "read"), a "call.<kind>" span around
// each transport.Client call the coordinator makes, and a
// "handle.<kind>" span around each site.Engine.Handle (with a "delay"
// span in front of it for the injected service delay). Times are
// nanoseconds since the recorder's epoch.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1: a root span
	Query  int    `json:"query"`  // the root span every span of one request shares
	Site   int    `json:"site"`   // -1: coordinator side

	session uint64
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

// recorder keeps spans in memory; nothing is written until the run ends.
// It is off while instances are set up, so only the measured operations
// leave spans.
type recorder struct {
	epoch time.Time
	on    atomic.Bool

	mu    sync.Mutex
	spans []span
	// roots maps a site session to the root span of the query that
	// opened it: the coordinator's end-of-query broadcast runs on a
	// fresh context, so its calls find their parent here.
	roots map[uint64]int
	// feeds samples the feedback tuples the workload broadcast, as probe
	// inputs for prtree.cross_sky_prob_us.
	feeds []Tuple
	// names interns the span names of each request kind, so that a
	// recorded call costs no string concatenation.
	names map[string]kindNames
}

type kindNames struct{ call, handle string }

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), roots: make(map[uint64]int), names: make(map[string]kindNames)}
}

// named returns the span names for a request kind. Caller holds r.mu.
func (r *recorder) named(kind string) kindNames {
	n, ok := r.names[kind]
	if !ok {
		n = kindNames{"call." + kind, "handle." + kind}
		r.names[kind] = n
	}
	return n
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

type rootKey struct{}

// root opens a root span and returns a context that carries it, plus
// the function that closes it. A nil recorder (the untraced runs)
// returns ctx unchanged.
func (r *recorder) root(ctx context.Context, name string) (context.Context, func()) {
	if r == nil || !r.on.Load() {
		return ctx, func() {}
	}
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Start: r.now(), ID: id, Parent: -1, Query: id, Site: -1})
	r.mu.Unlock()
	return context.WithValue(ctx, rootKey{}, id), func() {
		end := r.now()
		r.mu.Lock()
		r.spans[id].End = end
		r.mu.Unlock()
	}
}

// spanClient is the benchmark's decorator on the transport.Client seam.
type spanClient struct {
	inner Client
	rec   *recorder
	site  int
}

func (c *spanClient) Call(ctx context.Context, req *Request) (*Response, error) {
	resp, _, err := c.CallBytes(ctx, req)
	return resp, err
}

// CallBytes keeps the mux client's per-request byte attribution visible
// to the cluster's meters above this decorator.
func (c *spanClient) CallBytes(ctx context.Context, req *Request) (*Response, int64, error) {
	if !c.rec.on.Load() {
		return callBytes(ctx, c.inner, req)
	}
	start := c.rec.now()
	resp, n, err := callBytes(ctx, c.inner, req)
	end := c.rec.now()

	kind := req.Kind.String()
	r := c.rec
	r.mu.Lock()
	parent, ok := ctx.Value(rootKey{}).(int)
	switch {
	case ok && kind == "init":
		r.roots[req.Session] = parent
	case !ok:
		parent = -1
		if p, bound := r.roots[req.Session]; bound {
			parent = p
		}
		if kind == "end-query" {
			delete(r.roots, req.Session)
		}
	}
	if req.Kind == kindEvaluate && len(r.feeds) < 512 {
		r.feeds = append(r.feeds, req.Feed.Tuple)
	}
	r.spans = append(r.spans, span{
		Name: r.named(kind).call, Start: start, End: end, ID: len(r.spans),
		Parent: parent, Query: parent, Site: c.site, session: req.Session,
	})
	r.mu.Unlock()
	return resp, n, err
}

func (c *spanClient) Close() error { return c.inner.Close() }

// siteHandler is the benchmark's decorator on the transport.Handler
// seam: the injected service delay first (so site time excludes it),
// then the timed call into the engine. rec is nil on untraced runs.
type siteHandler struct {
	inner Handler
	rec   *recorder
	site  int
	delay time.Duration
}

func (h *siteHandler) Handle(ctx context.Context, req *Request) (*Response, error) {
	traced := h.rec != nil && h.rec.on.Load()
	var t0 int64
	if traced {
		t0 = h.rec.now()
	}
	if h.delay > 0 {
		timer := time.NewTimer(h.delay)
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		case <-timer.C:
		}
	}
	if !traced {
		return h.inner.Handle(ctx, req)
	}
	t1 := h.rec.now()
	resp, err := h.inner.Handle(ctx, req)
	t2 := h.rec.now()
	// Parent and Query are filled in by link, once the run is over.
	r := h.rec
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans,
		span{Name: "delay", Start: t0, End: t1, ID: id, Parent: -1, Query: -1, Site: h.site, session: req.Session},
		span{Name: r.named(req.Kind.String()).handle, Start: t1, End: t2, ID: id + 1, Parent: -1, Query: -1, Site: h.site, session: req.Session})
	r.mu.Unlock()
	return resp, err
}

// breakdown is where one root span's time went. Every instant of the
// span is given to exactly one component: core.self while no call is
// outstanding; and while the coordinator is blocked in a step, to the
// site if any site is inside Engine.Handle for it, else to the injected
// delay if any site is sleeping it off, else to the transport. So
//
//	total = coreSelf + siteBlocking + delay + transportBlocking
//
// holds for every request. Attributing a step to whichever site is
// working — not to its slowest call alone — matters in-process, where
// ten sites' Inits share two cores and the slowest call starts late.
type breakdown struct {
	total             float64 // root span duration, ns
	coreSelf          float64
	siteBlocking      float64
	transportBlocking float64
	delay             float64
	siteBusy          float64 // every handle span, all sites
	steps             int
}

// traceStats is the analysis of one traced pass.
type traceStats struct {
	queries, updates []breakdown
	handleNs         map[string][]float64 // by request kind
	callOverheadNs   []float64            // per call: call − handle − delay
	broadcastNs      []float64            // Evaluate broadcast steps
	straggler        []float64            // slowest / median call within one
	unmatched        int                  // calls without a handle span
}

// link gives every handle and delay span its call as parent. A site
// serves one session's requests in the order the coordinator issues
// them, so the i-th call to (site, session) is the i-th handle there.
func (r *recorder) link() (handleOf, delayOf map[int]int, unmatched int) {
	type key struct {
		site    int
		session uint64
	}
	calls, handles, delays := map[key][]int{}, map[key][]int{}, map[key][]int{}
	for i, s := range r.spans {
		k := key{s.Site, s.session}
		switch {
		case strings.HasPrefix(s.Name, "call."):
			calls[k] = append(calls[k], i)
		case strings.HasPrefix(s.Name, "handle."):
			handles[k] = append(handles[k], i)
		case s.Name == "delay":
			delays[k] = append(delays[k], i)
		}
	}
	byStart := func(ids []int) {
		sort.Slice(ids, func(a, b int) bool { return r.spans[ids[a]].Start < r.spans[ids[b]].Start })
	}
	handleOf, delayOf = map[int]int{}, map[int]int{}
	for k, cs := range calls {
		hs, ds := handles[k], delays[k]
		byStart(cs)
		byStart(hs)
		byStart(ds)
		for i, c := range cs {
			if i >= len(hs) || i >= len(ds) {
				unmatched++
				continue
			}
			for _, child := range []int{hs[i], ds[i]} {
				r.spans[child].Parent = c
				r.spans[child].Query = r.spans[c].Query
			}
			handleOf[c], delayOf[c] = hs[i], ds[i]
		}
	}
	return handleOf, delayOf, unmatched
}

// analyze turns the recorded spans into per-request breakdowns and
// per-layer samples. Call it once, after the traced pass.
func (r *recorder) analyze() *traceStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	handleOf, delayOf, unmatched := r.link()
	st := &traceStats{handleNs: map[string][]float64{}, unmatched: unmatched}

	children := map[int][]int{}
	for i, s := range r.spans {
		if !strings.HasPrefix(s.Name, "call.") {
			continue
		}
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
		h, ok := handleOf[i]
		if !ok {
			continue
		}
		kind := strings.TrimPrefix(s.Name, "call.")
		st.handleNs[kind] = append(st.handleNs[kind], r.spans[h].dur())
		st.callOverheadNs = append(st.callOverheadNs, s.dur()-r.spans[h].dur()-r.spans[delayOf[i]].dur())
	}

	for id, root := range r.spans {
		if root.Parent != -1 || root.Site != -1 {
			continue
		}
		b := breakdown{total: root.dur()}
		calls := children[id]
		sort.Slice(calls, func(a, c int) bool { return r.spans[calls[a]].Start < r.spans[calls[c]].Start })
		// The coordinator is single-threaded between steps, so calls
		// that overlap in time belong to one broadcast.
		for i := 0; i < len(calls); {
			start, end := r.spans[calls[i]].Start, r.spans[calls[i]].End
			blocking := calls[i]
			j := i + 1
			for ; j < len(calls) && r.spans[calls[j]].Start < end; j++ {
				if e := r.spans[calls[j]].End; e > end {
					end, blocking = e, calls[j]
				}
			}
			step := calls[i:j]
			b.steps++
			stepDur := float64(end - start)
			var handles, sleeps []span
			durs := make([]float64, 0, len(step))
			for _, c := range step {
				durs = append(durs, r.spans[c].dur())
				if h, ok := handleOf[c]; ok {
					handles = append(handles, r.spans[h])
					sleeps = append(sleeps, r.spans[delayOf[c]])
					b.siteBusy += r.spans[h].dur()
				}
			}
			site := covered(handles)
			b.siteBlocking += site
			sleeping := covered(append(sleeps, handles...)) - site
			b.delay += sleeping
			b.transportBlocking += stepDur - site - sleeping
			b.coreSelf -= stepDur
			if r.spans[blocking].Name == "call.evaluate" && len(step) > 1 && root.Name == "query" {
				st.broadcastNs = append(st.broadcastNs, stepDur)
				st.straggler = append(st.straggler, ratio(quantile(durs, 1), median(durs)))
			}
			i = j
		}
		b.coreSelf += b.total
		switch root.Name {
		case "query":
			st.queries = append(st.queries, b)
		case "update":
			st.updates = append(st.updates, b)
		}
	}
	return st
}

// covered is the length of the union of the spans' intervals, in ns.
func covered(spans []span) float64 {
	sort.Slice(spans, func(a, b int) bool { return spans[a].Start < spans[b].Start })
	var total, end int64
	for i, s := range spans {
		if i == 0 || s.Start > end {
			total += s.End - s.Start
			end = s.End
		} else if s.End > end {
			total += s.End - end
			end = s.End
		}
	}
	return float64(total)
}

// field projects one component out of a list of breakdowns.
func field(bs []breakdown, f func(breakdown) float64) []float64 {
	out := make([]float64, len(bs))
	for i, b := range bs {
		out[i] = f(b)
	}
	return out
}

// write saves the recorded spans, one JSON document per workload.
func (r *recorder) write(path, workload string) error {
	doc := struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, r.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
