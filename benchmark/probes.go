package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// The probes time the layers' public functions directly, on the
// workload's own partitions and the feedback tuples it broadcast. They
// say what one call into a layer costs in isolation; the traced pass
// says how much of a query those calls add up to.

// probeInput is what the probes take from the workload they run beside.
type probeInput struct {
	w     *workload
	seed  int64
	parts []DB
	feeds []Tuple  // feedback tuples the traced pass broadcast
	floor []Member // the serving tier's materialized answer
	quick bool
}

// scaled returns n, or a twentieth of it (at least 1) on the quick profile.
func (p *probeInput) scaled(n int) int {
	if !p.quick {
		return n
	}
	if n < 20 {
		return 1
	}
	return n / 20
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// timeN is the mean duration of n calls of fn, in nanoseconds.
func timeN(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start)) / float64(n)
}

// median3 is the median duration of three calls of fn.
func median3(fn func()) time.Duration {
	var d [3]float64
	for i := range d {
		start := time.Now()
		fn()
		d[i] = float64(time.Since(start))
	}
	return time.Duration(median(d[:]))
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// sink keeps the compiler from discarding probe results.
var sink int

func runProbes(ctx context.Context, p *probeInput) (map[string]float64, error) {
	out := map[string]float64{}
	rng := rand.New(rand.NewSource(p.seed))
	if err := p.gen(out); err != nil {
		return nil, err
	}
	p.geom(out, rng)
	if err := p.prtree(out, rng); err != nil {
		return nil, err
	}
	if err := p.codec(out); err != nil {
		return nil, err
	}
	if err := p.transport(ctx, out); err != nil {
		return nil, err
	}
	p.serve(out)
	return out, nil
}

func (p *probeInput) gen(out map[string]float64) error {
	var db DB
	var err error
	out["gen.generate_ms"] = ms(median3(func() {
		var e error
		if db, e = generate(p.w.n, p.w.values, p.seed); e != nil {
			err = e
		}
	}))
	out["gen.partition_ms"] = ms(median3(func() {
		if _, e := partition(db, p.w.sites, p.seed); e != nil {
			err = e
		}
	}))
	return err
}

func (p *probeInput) geom(out map[string]float64, rng *rand.Rand) {
	const mask = 1023
	pts := make([]Point, mask+1)
	for i := range pts {
		pts[i] = Point{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	n := p.scaled(1_000_000)
	out["geom.dominates_ns"] = timeN(n, func(i int) {
		if pts[i&mask].Dominates(pts[(i*7+3)&mask]) {
			sink++
		}
	})
	sub := []int{0, 1}
	out["geom.dominates_in_ns"] = timeN(n, func(i int) {
		if pts[i&mask].DominatesIn(pts[(i*7+3)&mask], sub) {
			sink++
		}
	})
}

func (p *probeInput) prtree(out map[string]float64, rng *rand.Rand) error {
	var tree *Tree
	out["prtree.bulk_ms"] = ms(median3(func() { tree = bulkTree(p.parts[0]) }))
	out["prtree.height"] = float64(tree.Height())

	trees := make([]*Tree, len(p.parts))
	trees[0] = tree
	for i := 1; i < len(trees); i++ {
		trees[i] = bulkTree(p.parts[i])
	}
	const thresholds = 8
	var total time.Duration
	var size, calls int
	for _, t := range trees {
		for k := 0; k < thresholds; k++ {
			q := p.w.qLo + (p.w.qHi-p.w.qLo)*float64(k)/thresholds
			start := time.Now()
			sky := t.LocalSkyline(q, nil)
			total += time.Since(start)
			size += len(sky)
			calls++
		}
	}
	out["prtree.local_skyline_ms"] = ms(total) / float64(calls)
	out["prtree.local_skyline_size"] = float64(size) / float64(calls)

	feeds := p.feeds
	if len(feeds) == 0 {
		feeds = p.parts[0][:p.scaled(256)]
	}
	total = 0
	for _, f := range feeds {
		for _, t := range trees {
			start := time.Now()
			if t.CrossSkyProb(f, nil) > 0.5 {
				sink++
			}
			total += time.Since(start)
		}
	}
	out["prtree.cross_sky_prob_us"] = us(total) / float64(len(feeds)*len(trees))

	// The update mix of the workloads: every other insert near the origin.
	fresh := make([]Tuple, p.scaled(2000))
	for i := range fresh {
		scale := 1.0
		if i%2 == 0 {
			scale = 0.2
		}
		fresh[i] = Tuple{
			ID:    1<<50 + TupleID(i),
			Point: Point{rng.Float64() * scale, rng.Float64() * scale, rng.Float64() * scale},
			Prob:  1 - rng.Float64(),
		}
	}
	work := bulkTree(p.parts[0])
	out["prtree.insert_us"] = timeN(len(fresh), func(i int) { work.Insert(fresh[i]) }) / 1e3
	noTuple := ^TupleID(0)
	out["prtree.dominated_candidates_us"] = timeN(len(fresh), func(i int) {
		work.DominatedCandidates(fresh[i].Point, nil, noTuple, floor, func(Member) bool {
			sink++
			return true
		})
	}) / 1e3
	var err error
	out["prtree.delete_us"] = timeN(len(fresh), func(i int) {
		if e := work.Delete(fresh[i].ID, fresh[i].Point); e != nil {
			err = e
		}
	}) / 1e3
	return err
}

func (p *probeInput) codec(out map[string]float64) error {
	payload := make([]byte, 128)
	for i := range payload {
		payload[i] = byte(i)
	}
	var buf []byte
	var err error
	n := p.scaled(400_000)
	buf, _ = frameRoundTrip(buf, payload, 0) // size the buffer before counting allocations
	before := mallocs()
	out["codec.frame_roundtrip_ns"] = timeN(n, func(i int) {
		var e error
		if buf, e = frameRoundTrip(buf, payload, uint64(i)); e != nil {
			err = e
		}
	})
	out["codec.frame_allocs"] = float64(mallocs()-before) / float64(n)
	return err
}

// echo is the benchmark-owned constant-reply handler behind the
// transport probes: whatever a call costs here is transport, not site.
type echo struct {
	evaluate, next Response
}

func (e *echo) Handle(_ context.Context, req *Request) (*Response, error) {
	if req.Kind == kindNext {
		return &e.next, nil
	}
	return &e.evaluate, nil
}

func (p *probeInput) transport(ctx context.Context, out map[string]float64) error {
	sample := p.parts[0][0]
	h := &echo{
		evaluate: Response{CrossProb: 0.731, Pruned: 1, SessionPruned: 17},
	}
	h.next.Rep.Tuple, h.next.Rep.LocalProb = sample, 0.412
	evaluate := &Request{Kind: kindEvaluate, Session: 99}
	evaluate.Feed.Tuple, evaluate.Feed.HomeLocalProb = sample, 0.412
	next := &Request{Kind: kindNext, Session: 99}

	addr, stop, err := listenSite(h)
	if err != nil {
		return err
	}
	defer stop()
	c, err := dialSite(addr)
	if err != nil {
		return err
	}
	defer c.Close()

	// The first calls carry gob's type descriptors; steady state starts
	// after them.
	for i := 0; i < 50; i++ {
		for _, req := range []*Request{evaluate, next} {
			if _, err := c.Call(ctx, req); err != nil {
				return fmt.Errorf("echo warm-up: %w", err)
			}
		}
	}
	n := p.scaled(4000)
	rtts := make([]float64, 0, n)
	var bytes int64
	before := mallocs()
	for i := 0; i < n; i++ {
		start := time.Now()
		_, b, err := callBytes(ctx, c, evaluate)
		rtts = append(rtts, us(time.Since(start)))
		if err != nil {
			return fmt.Errorf("echo: %w", err)
		}
		bytes += b
	}
	out["transport.allocs_per_call"] = float64(mallocs()-before) / float64(n)
	out["transport.echo_rtt_us_p50"] = quantile(rtts, 0.5)
	out["transport.echo_rtt_us_p90"] = quantile(rtts, 0.9)
	out["transport.bytes_per_call.evaluate"] = float64(bytes) / float64(n)
	bytes = 0
	for i := 0; i < n/4; i++ {
		_, b, err := callBytes(ctx, c, next)
		if err != nil {
			return fmt.Errorf("echo: %w", err)
		}
		bytes += b
	}
	out["transport.bytes_per_call.next"] = float64(bytes) / float64(n/4)

	// Two callers pipelining on the one connection.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	start := time.Now()
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if _, err := c.Call(ctx, evaluate); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	out["transport.echo_calls_per_s_c2"] = float64(2*n) / time.Since(start).Seconds()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("echo: %w", err)
		}
	}

	local := localClient(h)
	defer local.Close()
	out["transport.local_call_ns"] = timeN(p.scaled(400_000), func(int) {
		if _, e := local.Call(ctx, evaluate); e != nil {
			err = e
		}
	})
	return err
}

func (p *probeInput) serve(out map[string]float64) {
	entries := make([]StoreEntry, len(p.floor))
	for i, m := range p.floor {
		entries[i] = StoreEntry{Member: m}
	}
	st := newStore(floor)
	st.Replace(entries, time.Now())
	q := golden{lo: floor, hi: coveredHi}
	out["serve.prefix_ns"] = timeN(p.scaled(100_000), func(int) {
		got, _ := st.Prefix(q.next())
		sink += len(got)
	})
	if len(entries) == 0 {
		out["serve.apply_us"] = 0
		return
	}
	// One upsert: a member of the floor answer re-scored by a hair, as a
	// maintainer delta would.
	e := entries[len(entries)/2]
	out["serve.apply_us"] = timeN(p.scaled(20_000), func(i int) {
		e.Member.Prob += 1e-12
		st.Apply([]StoreEntry{e}, nil)
	}) / 1e3
}
