package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// limits bounds one pass over a workload. The main phase ends after
// mainCycles cycles per client when that is set, and otherwise when
// mainFor has elapsed (a cycle in progress completes).
type limits struct {
	mainFor     time.Duration
	mainCycles  int
	tailCycles  int
	verifyEvery int // with updates in the main phase: check every n-th cycle inline
}

// sample is everything one pass measured, pooled over its clients.
type sample struct {
	queryMs, ttfrMs, thalfMs []float64 // main-phase protocol reads
	insertMs, deleteMs       []float64 // every update, main phase and tail
	readUs                   []float64 // every covered read

	// Sums over the main-phase protocol reads, from their Reports.
	queries                               int
	tuples, wireBytes, messages           float64
	rounds, broadcasts, expunged, refills float64
	shipped, pruned, answers              float64
	updateMsgs                            float64 // cluster meter delta across updates
	hits, misses                          int64   // Server.Stats
	mainOps                               int
	mainWall                              time.Duration // less the time spent verifying
	mallocs                               uint64        // heap allocations during the main phase
	attempted, failed                     int
	firstErr                              error
}

func (s *sample) fail(err error) {
	s.failed++
	if s.firstErr == nil {
		s.firstErr = err
	}
}

// golden spreads thresholds over [lo, hi) as an additive recurrence on
// the golden ratio: every prefix of the sequence covers the interval
// almost evenly, so a mean over however many queries fit in the time
// budget estimates the same quantity, and no two queries share a
// threshold — a per-q result cache gets no hits.
type golden struct {
	u, lo, hi float64
}

func (g *golden) next() float64 {
	g.u += 0.6180339887498949
	g.u -= math.Floor(g.u)
	return g.lo + (g.hi-g.lo)*g.u
}

// client is one closed-loop caller: its next operation starts when the
// previous one has returned.
type client struct {
	sample
	protoQ, coveredQ golden
	pending          []answer // answers to verify once the phase is over
	// Verifying inline stops the clock and is kept out of the
	// allocation count: paused and verifyMallocs are what it cost.
	paused        time.Duration
	verifyMallocs uint64
}

// reading is one completed query: its answer for verification, its
// report for the counts, and its latencies.
type reading struct {
	answer
	rep *Report
	// lat is call to return; first and half are call to the first and
	// to the ⌈k/2⌉-th of k progressive results (zero when k is 0).
	lat, first, half time.Duration
}

// read runs one query through the serving tier's public entry point.
func read(ctx context.Context, in *instance, q float64, covered bool) (reading, error) {
	r := reading{answer: answer{q: q}}
	opts := Options{Threshold: q, Mode: modeProtocol}
	if covered || in.w.uncovered {
		opts.Mode = modeAuto
	}
	name, want := "query", sourceProtocol
	if covered {
		name, want = "read", sourceMaterialized
	}
	var stamps []time.Duration
	ctx, end := in.rec.root(ctx, name)
	start := time.Now()
	opts.OnResult = func(res Result) {
		stamps = append(stamps, time.Since(start))
		r.delivered = append(r.delivered, res)
	}
	rep, err := in.srv.Query(ctx, opts)
	r.lat = time.Since(start)
	end()
	if err != nil {
		return r, err
	}
	r.rep, r.skyline = rep, rep.Skyline
	if k := len(stamps); k > 0 {
		r.first, r.half = stamps[0], stamps[(k+1)/2-1]
	}
	if in.tamper != nil {
		in.tamper(&r.answer)
	}
	if rep.Source != want {
		return r, fmt.Errorf("q=%v: answered from %v, want %v", q, rep.Source, want)
	}
	return r, nil
}

// runCycle runs one cycle of shape against in. measured says whether the
// protocol reads count towards the query metrics (main phase) or not
// (tail). verify checks this cycle's answers now, against an oracle
// rebuilt over the benchmark's copy of the data; otherwise they are
// queued and checked after the phase — valid only while the phase makes
// no updates.
func (cl *client) runCycle(ctx context.Context, in *instance, shape cycle, measured, verify bool) {
	var answers []answer

	for u := 0; u < shape.updates; u++ {
		insert, lt := in.nextUpdate()
		before := in.cluster.Meter().Snapshot().Messages
		uctx, end := in.rec.root(ctx, "update")
		start := time.Now()
		var err error
		if insert {
			err = in.srv.Insert(uctx, lt.home, lt.t)
		} else {
			err = in.srv.Delete(uctx, lt.home, lt.t)
		}
		lat := time.Since(start)
		end()
		cl.attempted++
		if err != nil {
			cl.fail(fmt.Errorf("update %d: %w", lt.t.ID, err))
			continue
		}
		in.applied(insert, lt)
		if insert {
			cl.insertMs = append(cl.insertMs, float64(lat)/1e6)
		} else {
			cl.deleteMs = append(cl.deleteMs, float64(lat)/1e6)
		}
		cl.updateMsgs += float64(in.cluster.Meter().Snapshot().Messages - before)
	}

	for p := 0; p < shape.protocol; p++ {
		r, err := read(ctx, in, cl.protoQ.next(), false)
		cl.attempted++
		if err != nil {
			cl.fail(err)
			continue
		}
		answers = append(answers, r.answer)
		if !measured {
			continue
		}
		rep := r.rep
		cl.queries++
		cl.queryMs = append(cl.queryMs, float64(r.lat)/1e6)
		if len(r.delivered) > 0 {
			cl.ttfrMs = append(cl.ttfrMs, float64(r.first)/1e6)
			cl.thalfMs = append(cl.thalfMs, float64(r.half)/1e6)
		}
		cl.tuples += float64(rep.Bandwidth.Tuples())
		cl.wireBytes += float64(rep.Bandwidth.Bytes)
		cl.messages += float64(rep.Bandwidth.Messages)
		cl.rounds += float64(rep.Iterations)
		cl.broadcasts += float64(rep.Broadcasts)
		cl.expunged += float64(rep.Expunged)
		cl.refills += float64(rep.Refills)
		cl.pruned += float64(rep.PrunedLocal)
		cl.answers += float64(len(rep.Skyline))
		for _, s := range rep.PerSite {
			cl.shipped += float64(s.Shipped)
		}
	}

	for c := 0; c < shape.covered; c++ {
		r, err := read(ctx, in, cl.coveredQ.next(), true)
		cl.attempted++
		if err != nil {
			cl.fail(err)
			continue
		}
		cl.readUs = append(cl.readUs, float64(r.lat)/1e3)
		answers = append(answers, r.answer)
	}

	if !verify {
		if shape.updates == 0 {
			cl.pending = append(cl.pending, answers...)
		}
		return
	}
	t0, m0 := time.Now(), mallocs()
	if in.oracle == nil {
		in.oracle = in.freshOracle()
	}
	for _, a := range answers {
		if err := in.oracle.check(a); err != nil {
			cl.fail(err)
		}
	}
	cl.verifyMallocs += mallocs() - m0
	cl.paused += time.Since(t0)
}

// runPass runs the workload's main phase and tail against in and
// verifies every answer it can: all of them while the data stands
// still, every verifyEvery-th cycle's while it is being updated, and
// the serving tier's final materialized skyline.
func runPass(ctx context.Context, in *instance, lim limits, seed int64) *sample {
	w := in.w
	clients := make([]*client, w.clients)
	for c := range clients {
		u := rand.New(rand.NewSource(seed + int64(c)<<32)).Float64()
		clients[c] = &client{
			protoQ:   golden{u: u, lo: w.qLo, hi: w.qHi},
			coveredQ: golden{u: u, lo: floor, hi: coveredHi},
		}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var wg sync.WaitGroup
	for _, cl := range clients {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			for i := 0; ; i++ {
				if lim.mainCycles > 0 && i >= lim.mainCycles {
					return
				}
				if lim.mainCycles == 0 && time.Since(start)-cl.paused >= lim.mainFor {
					return
				}
				verify := w.main.updates > 0 && lim.verifyEvery > 0 && i%lim.verifyEvery == lim.verifyEvery-1
				cl.runCycle(ctx, in, w.main, true, verify)
				cl.mainOps += w.main.ops()
			}
		}(cl)
	}
	wg.Wait()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)

	out := &sample{mallocs: after.Mallocs - before.Mallocs}
	var paused time.Duration
	for _, cl := range clients {
		if cl.paused > paused {
			paused = cl.paused
		}
		out.mallocs -= cl.verifyMallocs
	}
	out.mainWall = wall - paused

	// No update ran while these answers were produced, so the oracle
	// built at set-up still stands; the tail below makes it stale.
	for _, cl := range clients {
		for _, a := range cl.pending {
			if err := in.oracle.check(a); err != nil {
				cl.fail(err)
			}
		}
	}

	// The tail runs on one client; its answers are covered by the final
	// check below.
	tail := clients[0]
	for i := 0; i < lim.tailCycles; i++ {
		tail.runCycle(ctx, in, w.tail, false, false)
	}
	for _, cl := range clients {
		out.merge(&cl.sample)
	}
	if in.oracle == nil {
		in.oracle = in.freshOracle()
	}
	out.attempted++
	if err := in.oracle.check(finalAnswer(in)); err != nil {
		out.fail(fmt.Errorf("final materialized skyline: %w", err))
	}
	st := in.srv.Stats()
	out.hits, out.misses = st.Hits, st.Misses
	return out
}

// finalAnswer reads the serving tier's whole materialized skyline as an
// answer at the floor (it has no progressive deliveries to check, so
// they are synthesised in report order).
func finalAnswer(in *instance) answer {
	a := answer{q: floor, skyline: in.srv.Skyline()}
	for i, m := range a.skyline {
		a.delivered = append(a.delivered, Result{Tuple: m.Tuple, GlobalProb: m.Prob, Index: i + 1})
	}
	return a
}

func (s *sample) merge(o *sample) {
	s.queryMs = append(s.queryMs, o.queryMs...)
	s.ttfrMs = append(s.ttfrMs, o.ttfrMs...)
	s.thalfMs = append(s.thalfMs, o.thalfMs...)
	s.insertMs = append(s.insertMs, o.insertMs...)
	s.deleteMs = append(s.deleteMs, o.deleteMs...)
	s.readUs = append(s.readUs, o.readUs...)
	s.queries += o.queries
	s.tuples += o.tuples
	s.wireBytes += o.wireBytes
	s.messages += o.messages
	s.rounds += o.rounds
	s.broadcasts += o.broadcasts
	s.expunged += o.expunged
	s.refills += o.refills
	s.shipped += o.shipped
	s.pruned += o.pruned
	s.answers += o.answers
	s.updateMsgs += o.updateMsgs
	s.mainOps += o.mainOps
	s.attempted += o.attempted
	s.failed += o.failed
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
}
