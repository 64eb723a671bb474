// Command benchmark is the repository's benchmark: four named workloads,
// end-to-end metrics measured with tracing off, per-layer metrics from
// probes and a traced pass, and every answer checked against the
// benchmark's own oracle. README.md in this directory says how to run
// it and what each number means; BENCHMARK.json at the repository root
// is its contract.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// setupsPerRun is how many times an end-to-end run sets the workload up,
// so that setup_s is a median; the last instance is the one measured.
const setupsPerRun = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a driver run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	seed    int64
	seconds float64
	quick   bool
	// corrupt, for the benchmark's own negative test, falsifies one
	// reported probability before verification.
	corrupt bool
	log     *os.File
}

func (c *config) logf(format string, args ...any) {
	if c.log != nil {
		fmt.Fprintf(c.log, format, args...)
	}
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run; empty runs all four, untraced and traced, and writes -out")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", 15, "measured seconds per run")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from probes and a traced pass")
		quick    = flag.Bool("quick", false, "small inputs and fixed operation counts (the test profile)")
		out      = flag.String("out", "", "with no -workload: file to write the full result to")
		traceOut = flag.String("trace-out", "", "with -trace 1: file to write the recorded spans to")
	)
	flag.Parse()
	cfg := &config{seed: *seed, seconds: *seconds, quick: *quick, log: os.Stderr}
	ctx := context.Background()

	if *name == "" {
		if err := runAll(ctx, cfg, *out); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	var res *result
	var err error
	if *trace == 0 {
		res, err = runEndToEnd(ctx, cfg, w)
	} else {
		res, err = runPerLayer(ctx, cfg, w, *traceOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	os.Exit(exitCode(res))
}

// exitCode is non-zero when any operation failed or any answer failed
// verification, so a wrong skyline can never pass for a fast one.
func exitCode(res *result) int {
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// sized returns the workload at the profile's size.
func (c *config) sized(w *workload) *workload {
	if !c.quick {
		return w
	}
	q := *w
	q.n /= 20
	q.tailCycles = 2
	return &q
}

// limits splits the time budget: a workload with a tail spends most of
// it on the main phase, since the tail is a fixed number of cycles.
func (c *config) limits(w *workload, share float64) limits {
	lim := limits{tailCycles: w.tailCycles, verifyEvery: 10}
	if c.quick {
		lim.mainCycles = 10 / w.clients
		if w.main.updates > 0 {
			lim.mainCycles = 2
		}
		lim.verifyEvery = 2
		return lim
	}
	budget := c.seconds * share
	if w.tailCycles > 0 {
		budget *= 0.85
	}
	lim.mainFor = time.Duration(budget * float64(time.Second))
	return lim
}

// runEndToEnd is a --trace 0 run: the end-to-end metrics, with every
// decorator and recorder of the benchmark absent.
func runEndToEnd(ctx context.Context, cfg *config, w *workload) (*result, error) {
	w = cfg.sized(w)
	n := setupsPerRun
	if cfg.quick {
		n = 1
	}
	var in *instance
	setups := make([]float64, n)
	for i := range setups {
		if in != nil {
			in.close()
		}
		var err error
		if in, err = build(ctx, w, nil); err != nil {
			return nil, fmt.Errorf("set-up of %s: %w", w.name, err)
		}
		setups[i] = in.setup.Seconds()
	}
	defer in.close()

	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	in.track()
	if cfg.corrupt {
		in.tamper = func(a *answer) {
			if len(a.skyline) > 0 {
				a.skyline = append([]Member(nil), a.skyline...)
				a.skyline[0].Prob *= 0.999
			}
		}
	}

	s := runPass(ctx, in, cfg.limits(w, 1), cfg.seed)
	if s.queries == 0 || len(s.deleteMs) == 0 {
		return nil, fmt.Errorf("%s: %d queries and %d updates completed, nothing to report", w.name, s.queries, len(s.insertMs)+len(s.deleteMs))
	}
	m := map[string]float64{
		"setup_s":          median(setups),
		"query_ms_p50":     quantile(s.queryMs, 0.5),
		"query_ms_p90":     quantile(s.queryMs, 0.9),
		"ttfr_ms_p50":      quantile(s.ttfrMs, 0.5),
		"thalf_ms_p50":     quantile(s.thalfMs, 0.5),
		"ops_per_s":        float64(s.mainOps) / s.mainWall.Seconds(),
		"insert_ms_p75":    quantile(s.insertMs, 0.75),
		"delete_ms_mean":   mean(s.deleteMs),
		"update_ms_p90":    quantile(append(s.insertMs, s.deleteMs...), 0.9),
		"tuples_per_query": s.tuples / float64(s.queries),
		"heap_mb":          float64(mem.HeapAlloc) / 1e6,
	}
	cfg.logf("%s seed=%d: main phase %.2fs\n", w, cfg.seed, s.mainWall.Seconds())
	logTiming(cfg, "query_ms", s.queryMs)
	logTiming(cfg, "ttfr_ms", s.ttfrMs)
	logTiming(cfg, "thalf_ms", s.thalfMs)
	logTiming(cfg, "insert_ms", s.insertMs)
	logTiming(cfg, "delete_ms", s.deleteMs)
	logTiming(cfg, "setup_s", setups)
	return finish(cfg, s, m, endToEnd)
}

// logTiming prints a timing's quartiles and sample count.
func logTiming(cfg *config, name string, xs []float64) {
	cfg.logf("  %-22s N=%-6d p25=%-10.4g p50=%-10.4g p75=%-10.4g p90=%-10.4g p99=%.4g\n",
		name, len(xs), quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75), quantile(xs, 0.9), quantile(xs, 0.99))
}

// finish turns measured values into the result, in the units the
// contract declares, and refuses to drop or invent a metric.
func finish(cfg *config, s *sample, values map[string]float64, defs []metricDef) (*result, error) {
	res := &result{
		Correct:   s.failed == 0,
		Attempted: s.attempted,
		Failed:    s.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		cfg.logf("  %-36s %14.6g %s\n", d.name, v, d.unit)
	}
	if len(values) != len(defs) {
		return nil, fmt.Errorf("%d values measured for %d declared metrics", len(values), len(defs))
	}
	if s.firstErr != nil {
		cfg.logf("  FAILED %d of %d operations; first: %v\n", s.failed, s.attempted, s.firstErr)
	}
	return res, nil
}

// runPerLayer is a --trace 1 run. It builds the workload twice, plain
// and under the benchmark's span decorators, and spends
// the time budget on an untraced slice (the reference for the tracing
// overhead), a traced slice, and the probes.
func runPerLayer(ctx context.Context, cfg *config, w *workload, traceOut string) (*result, error) {
	w = cfg.sized(w)
	plain, err := build(ctx, w, nil)
	if err != nil {
		return nil, err
	}
	defer plain.close()
	rec := newRecorder()
	traced, err := build(ctx, w, rec)
	if err != nil {
		return nil, err
	}
	defer traced.close()
	plain.track()
	traced.track()
	floorAnswer := traced.srv.Skyline()

	lim := cfg.limits(w, 0.3)
	lim.tailCycles = 0
	untraced := runPass(ctx, plain, lim, cfg.seed)

	rec.on.Store(true)
	s := runPass(ctx, traced, cfg.limits(w, 0.4), cfg.seed)
	rec.on.Store(false)
	s.attempted += untraced.attempted
	s.failed += untraced.failed
	if s.firstErr == nil {
		s.firstErr = untraced.firstErr
	}
	if s.queries == 0 || untraced.queries == 0 {
		return nil, fmt.Errorf("%s: no query completed in the traced pass", w.name)
	}
	ts := rec.analyze()
	if ts.unmatched > 0 {
		s.fail(fmt.Errorf("trace: %d calls have no handle span", ts.unmatched))
	}
	if traceOut != "" {
		if err := rec.write(traceOut, w.name); err != nil {
			return nil, err
		}
	}

	m, err := runProbes(ctx, &probeInput{
		w: w, seed: cfg.seed, parts: traced.parts, feeds: rec.feeds, floor: floorAnswer, quick: cfg.quick,
	})
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}

	q := float64(s.queries)
	p50 := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0 // the layer was not exercised
		}
		return median(xs)
	}
	part := func(f func(breakdown) float64) float64 { return p50(field(ts.queries, f)) / 1e6 }

	m["site.init_ms_p50"] = p50(ts.handleNs["init"]) / 1e6
	m["site.next_us_p50"] = p50(ts.handleNs["next"]) / 1e3
	m["site.evaluate_us_p50"] = p50(ts.handleNs["evaluate"]) / 1e3
	m["site.insert_us_p50"] = p50(ts.handleNs["insert"]) / 1e3
	m["site.delete_us_p50"] = p50(ts.handleNs["delete"]) / 1e3
	m["site.candidates_us_p50"] = p50(ts.handleNs["candidates"]) / 1e3
	m["site.busy_ms_per_query"] = part(func(b breakdown) float64 { return b.siteBusy })
	m["site.blocking_ms_per_query"] = part(func(b breakdown) float64 { return b.siteBlocking })
	m["site.shipped_per_query"] = s.shipped / q
	m["site.pruned_per_query"] = s.pruned / q
	m["site.shipped_ratio"] = ratio(s.shipped/q, m["prtree.local_skyline_size"]*float64(w.sites))

	m["transport.blocking_ms_per_query"] = part(func(b breakdown) float64 { return b.transportBlocking })
	m["transport.delay_ms_per_query"] = part(func(b breakdown) float64 { return b.delay })
	m["transport.call_overhead_us_p50"] = p50(ts.callOverheadNs) / 1e3
	m["transport.wire_bytes_per_query"] = s.wireBytes / q

	m["core.rounds_per_query"] = s.rounds / q
	m["core.broadcasts_per_query"] = s.broadcasts / q
	m["core.expunged_per_query"] = s.expunged / q
	m["core.refills_per_query"] = s.refills / q
	m["core.messages_per_query"] = s.messages / q
	m["core.answers_per_broadcast"] = ratio(s.answers, s.broadcasts)
	m["core.self_ms_per_query"] = part(func(b breakdown) float64 { return b.coreSelf })
	m["core.self_us_per_round"] = ratio(m["core.self_ms_per_query"]*1e3, s.rounds/q)
	m["core.broadcast_ms_p50"] = p50(ts.broadcastNs) / 1e6
	m["core.straggler_ratio"] = p50(ts.straggler)
	m["core.update_msgs_per_op"] = ratio(s.updateMsgs, float64(len(s.insertMs)+len(s.deleteMs)))
	m["core.maintainer_self_us_p50"] = p50(field(ts.updates, func(b breakdown) float64 { return b.coreSelf })) / 1e3
	m["core.allocs_per_query"] = float64(untraced.mallocs) / float64(untraced.queries)

	m["serve.read_us_p50"] = p50(s.readUs)
	m["serve.hit_ratio"] = ratio(float64(s.hits), float64(s.hits+s.misses))

	tracedP50, plainP50 := median(s.queryMs), median(untraced.queryMs)
	m["trace.overhead_pct"] = 100 * (tracedP50 - plainP50) / plainP50
	explained := m["core.self_ms_per_query"] + m["site.blocking_ms_per_query"] + m["transport.blocking_ms_per_query"] + m["transport.delay_ms_per_query"]
	m["trace.residual_pct"] = 100 * (tracedP50 - explained) / tracedP50

	cfg.logf("%s seed=%d traced: %d queries, %d updates, %d spans\n", w, cfg.seed, s.queries, len(s.insertMs)+len(s.deleteMs), len(rec.spans))
	cfg.logf("  query p50 %.4g ms = core.self %.4g + site.blocking %.4g + transport.blocking %.4g + delay %.4g + residual %.4g (medians, ms)\n",
		tracedP50, m["core.self_ms_per_query"], m["site.blocking_ms_per_query"], m["transport.blocking_ms_per_query"],
		m["transport.delay_ms_per_query"], tracedP50-explained)
	return finish(cfg, s, m, perLayer)
}

// runAll is the one command of the README: every workload, untraced
// then traced, gathered with the machine's description into one file.
func runAll(ctx context.Context, cfg *config, out string) error {
	type run struct {
		Workload string  `json:"workload"`
		EndToEnd *result `json:"end_to_end"`
		PerLayer *result `json:"per_layer"`
	}
	doc := struct {
		Seed       int64   `json:"seed"`
		Seconds    float64 `json:"seconds"`
		Quick      bool    `json:"quick"`
		NumCPU     int     `json:"nproc"`
		GOMAXPROCS int     `json:"gomaxprocs"`
		GoVersion  string  `json:"go_version"`
		GitSHA     string  `json:"git_sha"`
		Runs       []run   `json:"runs"`
	}{
		Seed: cfg.seed, Seconds: cfg.seconds, Quick: cfg.quick,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), GitSHA: gitSHA(),
	}
	correct := true
	for i := range workloads {
		w := &workloads[i]
		e2e, err := runEndToEnd(ctx, cfg, w)
		if err != nil {
			return err
		}
		layers, err := runPerLayer(ctx, cfg, w, "")
		if err != nil {
			return err
		}
		correct = correct && e2e.Correct && layers.Correct
		doc.Runs = append(doc.Runs, run{w.name, e2e, layers})
	}
	if out != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if !correct {
		return fmt.Errorf("verification failed; see the FAILED lines above")
	}
	return nil
}

// gitSHA names the commit the result was measured at, where there is a
// repository to ask.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// metricDef is one metric of the contract: BENCHMARK.json lists the same
// names and units, and bench_test.go holds the two to each other.
type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_ms_p50", "ms"},
	{"query_ms_p90", "ms"},
	{"ttfr_ms_p50", "ms"},
	{"thalf_ms_p50", "ms"},
	{"ops_per_s", "1/s"},
	{"insert_ms_p75", "ms"},
	{"delete_ms_mean", "ms"},
	{"update_ms_p90", "ms"},
	{"tuples_per_query", "tuples"},
	{"heap_mb", "MB"},
}

var perLayer = []metricDef{
	{"gen.generate_ms", "ms"},
	{"gen.partition_ms", "ms"},
	{"geom.dominates_ns", "ns"},
	{"geom.dominates_in_ns", "ns"},
	{"prtree.bulk_ms", "ms"},
	{"prtree.height", "count"},
	{"prtree.local_skyline_ms", "ms"},
	{"prtree.local_skyline_size", "tuples"},
	{"prtree.cross_sky_prob_us", "us"},
	{"prtree.insert_us", "us"},
	{"prtree.delete_us", "us"},
	{"prtree.dominated_candidates_us", "us"},
	{"site.init_ms_p50", "ms"},
	{"site.next_us_p50", "us"},
	{"site.evaluate_us_p50", "us"},
	{"site.insert_us_p50", "us"},
	{"site.delete_us_p50", "us"},
	{"site.candidates_us_p50", "us"},
	{"site.busy_ms_per_query", "ms"},
	{"site.blocking_ms_per_query", "ms"},
	{"site.shipped_per_query", "tuples"},
	{"site.pruned_per_query", "tuples"},
	{"site.shipped_ratio", "ratio"},
	{"codec.frame_roundtrip_ns", "ns"},
	{"codec.frame_allocs", "count"},
	{"transport.echo_rtt_us_p50", "us"},
	{"transport.echo_rtt_us_p90", "us"},
	{"transport.echo_calls_per_s_c2", "1/s"},
	{"transport.local_call_ns", "ns"},
	{"transport.bytes_per_call.evaluate", "bytes"},
	{"transport.bytes_per_call.next", "bytes"},
	{"transport.allocs_per_call", "count"},
	{"transport.blocking_ms_per_query", "ms"},
	{"transport.delay_ms_per_query", "ms"},
	{"transport.call_overhead_us_p50", "us"},
	{"transport.wire_bytes_per_query", "bytes"},
	{"core.rounds_per_query", "count"},
	{"core.broadcasts_per_query", "count"},
	{"core.expunged_per_query", "count"},
	{"core.refills_per_query", "count"},
	{"core.messages_per_query", "count"},
	{"core.answers_per_broadcast", "ratio"},
	{"core.self_ms_per_query", "ms"},
	{"core.self_us_per_round", "us"},
	{"core.broadcast_ms_p50", "ms"},
	{"core.straggler_ratio", "ratio"},
	{"core.update_msgs_per_op", "count"},
	{"core.maintainer_self_us_p50", "us"},
	{"core.allocs_per_query", "count"},
	{"serve.prefix_ns", "ns"},
	{"serve.apply_us", "us"},
	{"serve.read_us_p50", "us"},
	{"serve.hit_ratio", "ratio"},
	{"trace.overhead_pct", "%"},
	{"trace.residual_pct", "%"},
}
