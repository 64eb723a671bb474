package round

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/msg"
	"repro/internal/prtree"
	"repro/internal/serve"
	"repro/internal/site"
	"repro/internal/uncertain"
)

// referenceBounds is the O(queue²) Corollary-2 refresh the dominance
// matrix replaced, kept as its oracle: every pair of queued
// representatives is tested, and the factors multiply in queue order
// (DSUD's bounds are the local probabilities).
func referenceBounds(queue []queued, opts Options) []float64 {
	bounds := make([]float64, len(queue))
	for k, s := range queue {
		bounds[k] = s.rep.LocalProb
		for _, t := range queue {
			if opts.Enhanced && t.site != s.site && t.rep.Tuple.Dominates(s.rep.Tuple, opts.Dims) {
				bounds[k] *= t.rep.LocalProb / t.rep.Tuple.Prob * (1 - t.rep.Tuple.Prob)
			}
		}
	}
	return bounds
}

// kernelSites runs a query's fan-outs on real site engines (fakeSites) and
// checks the engine it serves at each: its bounds, refreshed there, equal
// the reference bit for bit (then the refresh is undone, so the run goes
// on as it would have); and the previous fan-out's carried feedback is
// still what it was sent with, until this one returns, as core's view
// needs. reused counts the carried lists that went out in an array an
// earlier carry had sent.
type kernelSites struct {
	*fakeSites
	t       *testing.T
	what    string
	e       *engine
	out     *Outcome
	checks  int
	factors int
	prev    []msg.Request
	prevIDs [][]uncertain.TupleID
	arrays  map[*msg.Representative]bool
	reused  int
}

func (k *kernelSites) Fanout(ctx context.Context, reqs []msg.Request) ([]*msg.Response, error) {
	k.checkCarried("before")
	k.checkBounds()
	resps, err := k.fakeSites.Fanout(ctx, reqs)
	k.checkCarried("during")
	k.prev, k.prevIDs = slices.Clone(reqs), make([][]uncertain.TupleID, len(reqs))
	for i, r := range reqs {
		if r.Kind == msg.KindInit || len(r.Tuples) == 0 {
			continue
		}
		for _, c := range r.Tuples {
			k.prevIDs[i] = append(k.prevIDs[i], c.Tuple.ID)
		}
		if k.arrays[&r.Tuples[0]] {
			k.reused++
		}
		k.arrays[&r.Tuples[0]] = true
	}
	return resps, err
}

func (k *kernelSites) checkCarried(when string) {
	for i, r := range k.prev {
		if r.Kind == msg.KindInit {
			continue
		}
		var ids []uncertain.TupleID
		for _, c := range r.Tuples {
			ids = append(ids, c.Tuple.ID)
		}
		if !slices.Equal(ids, k.prevIDs[i]) {
			k.t.Fatalf("%s: site %d's carried feedback changed %s the next fan-out: %v, sent %v", k.what, i, when, ids, k.prevIDs[i])
		}
	}
}

func (k *kernelSites) checkBounds() {
	e := k.e
	saved := make([]float64, len(e.queue))
	for i, c := range e.queue {
		saved[i] = c.bound
	}
	e.recomputeBounds()
	want := referenceBounds(e.queue, e.opts)
	for i, c := range e.queue {
		if math.Float64bits(c.bound) != math.Float64bits(want[i]) {
			k.t.Fatalf("%s: queue %d (site %d) bound %v, reference %v", k.what, i, c.site, c.bound, want[i])
		}
		if c.bound != c.rep.LocalProb {
			k.factors++
		}
		e.queue[i].bound = saved[i]
	}
	k.checks++
}

// Every fan-out of e-DSUD and DSUD runs over real site engines — plain,
// top-3 and stopped at 2 results (whose expunged candidates refill in
// waves of their own), resumed from a known answer, and with expunging
// off — sees bounds that equal the O(queue²) reference bit for bit, and
// carried feedback that stays as sent until the next fan-out returns,
// while later carries reuse the arrays earlier ones sent.
func TestBoundsAndCarriesMatchReference(t *testing.T) {
	checks, factors, reused := 0, 0, 0
	for seed := int64(1); seed <= 3; seed++ {
		for _, m := range []int{3, 8} {
			parts := drawParts(seed, m, 40, 3)
			for _, dims := range [][]int{nil, {0, 2}} {
				for _, enhanced := range []bool{true, false} {
					plain := Options{Threshold: 0.1, Dims: dims, Enhanced: enhanced}
					var known []serve.Entry
					what := fmt.Sprintf("seed %d m=%d dims=%v enhanced=%v", seed, m, dims, enhanced)
					full := runKernels(t, what+" plain", parts, plain).out
					for _, a := range full.Skyline {
						if a.Prob >= 0.3 {
							known = append(known, serve.Entry{Member: a, Site: full.Sites[a.Tuple.ID], Local: full.Local[a.Tuple.ID]})
						}
					}
					for _, v := range []struct {
						name string
						edit func(*Options)
					}{
						{"top-3", func(o *Options) { o.TopK = 3 }},
						{"max 2", func(o *Options) { o.MaxResults = 2 }},
						{"resumed", func(o *Options) { o.Known = known }},
						{"no expunge", func(o *Options) { o.DisableExpunge = true }},
					} {
						opts := plain
						v.edit(&opts)
						k := runKernels(t, what+" "+v.name, parts, opts)
						checks, factors, reused = checks+k.checks, factors+k.factors, reused+k.reused
					}
				}
			}
		}
	}
	if checks == 0 || factors == 0 || reused == 0 {
		t.Fatalf("%d bound checks, %d tightened bounds, %d reused carries: the sweep tests nothing", checks, factors, reused)
	}
}

// runKernels runs opts over fresh engines on parts behind kernelSites.
func runKernels(t *testing.T, what string, parts []uncertain.DB, opts Options) *kernelSites {
	t.Helper()
	engines := make([]*site.Engine, len(parts))
	for i, part := range parts {
		engines[i] = site.New(i, part, 3, 0)
	}
	k := &kernelSites{fakeSites: &fakeSites{q: opts.Threshold, dims: opts.Dims, engines: engines, summaries: true},
		t: t, what: what, arrays: map[*msg.Representative]bool{}}
	k.e = newEngine(k, opts, nil)
	out, err := k.e.run(context.Background())
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	k.out = out
	return k
}

// BenchmarkRecomputeBounds is e-DSUD's bound refresh on a real queue: one
// representative from each of ten compute_inproc-shaped sites (10k
// independent tuples each), drawn from their local skylines at q = 0.3,
// by the O(queue²) reference and by the matrix enqueue keeps.
func BenchmarkRecomputeBounds(b *testing.B) {
	db, err := gen.Generate(gen.Config{N: 100000, Dims: 3, Values: gen.Independent, Probs: gen.UniformProb, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	parts, err := gen.Partition(db, 10, 2)
	if err != nil {
		b.Fatal(err)
	}
	skies := make([][]msg.Representative, len(parts))
	for i, part := range parts {
		prtree.Bulk(part, 3, 0).LocalSkylineFunc(0.3, nil, func(m uncertain.SkylineMember) bool {
			skies[i] = append(skies[i], msg.Representative{Tuple: m.Tuple, LocalProb: m.Prob})
			return true
		})
	}
	queues := make([]*engine, 64)
	for q := range queues {
		e := newEngine(&fakeSites{engines: make([]*site.Engine, len(parts))}, Options{Threshold: 0.3, Enhanced: true}, nil)
		e.begin(PhaseToServer)
		for i, sky := range skies {
			if len(sky) > 0 {
				e.enqueue(i, sky[(q*7+i)%len(sky)])
			}
		}
		e.end()
		queues[q] = e
	}
	b.Run("reference", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			e := queues[n%len(queues)]
			for k, bound := range referenceBounds(e.queue, e.opts) {
				e.queue[k].bound = bound
			}
		}
	})
	b.Run("matrix", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			queues[n%len(queues)].recomputeBounds()
		}
	})
}
