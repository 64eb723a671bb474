// Command dsud-loadgen drives sustained mixed query+update traffic
// against a DSUD cluster through dsq.Connect (the multiplexed v2 wire
// protocol) and reports latency percentiles, throughput and outcome
// counts. The generator is open-loop: arrivals are scheduled by the
// clock at -rps under a -profile (steady, burst or ramp), and each
// request's latency is measured from its scheduled arrival — a
// saturated cluster shows its real queueing delay instead of the
// flattering closed-loop numbers a blocked generator would produce.
//
// Usage:
//
//	dsud-loadgen -addrs 127.0.0.1:7101,127.0.0.1:7102 -rps 100 -duration 30s
//	dsud-loadgen -self-host -sites 3 -rps 200 -profile burst
//
// With -self-host the generator spins up loopback site daemons itself
// (no external cluster needed — the CI smoke mode). With -debug-addr it
// serves /metrics, /vars, /slostatusz and /debug/pprof/ live during the
// run. Declarative SLOs (-slo-p99, -slo-error-rate, -slo-ttfr-p95) are
// evaluated over rotating windows while the load runs; a sustained
// breach triggers a flight-recorder dump (with -flight-dir) and, with
// -slo-strict, a nonzero exit.
//
// Exit status: 0 on success, 1 when -max-error-rate or a -slo-strict
// objective failed, 2 on usage errors, 3 on audit invariant violations.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/dsq"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/obs/slo"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addrs    = flag.String("addrs", "", "comma-separated site addresses (mutually exclusive with -self-host)")
		dims     = flag.Int("dims", experiments.DefaultDims, "data dimensionality of the target cluster")
		selfHost = flag.Bool("self-host", false, "spin up loopback site daemons instead of dialing -addrs")
		n        = flag.Int("n", 2000, "self-host: workload cardinality")
		sites    = flag.Int("sites", 3, "self-host: number of loopback sites")
		genSeed  = flag.Int64("gen-seed", 7, "self-host: workload generation seed")

		rps       = flag.Float64("rps", 50, "offered request rate (requests/second)")
		duration  = flag.Duration("duration", 5*time.Second, "length of one soak iteration")
		iters     = flag.Int("iterations", 3, "soak iterations (percentiles are reported as a distribution over them)")
		workers   = flag.Int("workers", 8, "concurrent in-flight query cap (arrivals beyond it queue, and the wait counts as latency)")
		deadline  = flag.Duration("deadline", 2*time.Second, "per-request budget; slower requests classify as deadline")
		profile   = flag.String("profile", experiments.ProfileSteady, "arrival shape: steady|burst|ramp")
		burstF    = flag.Float64("burst-factor", 4, "burst profile: on-phase rate multiplier")
		burstP    = flag.Duration("burst-period", time.Second, "burst profile: on/off phase length")
		updFrac   = flag.Float64("update-fraction", 0, "share of offered traffic that is insert/delete maintenance, in [0,1)")
		threshold = flag.Float64("threshold", experiments.DefaultThreshold, "skyline probability threshold")
		algo      = flag.String("algo", "edsud", "query algorithm: dsud|edsud")
		mode      = flag.String("mode", "protocol", "read path: protocol (one round per query) or materialized (warm a serving tier once, serve prefix reads; updates flow through it)")
		seed      = flag.Int64("seed", 11, "update-stream seed")

		auditFrac    = flag.Float64("audit-fraction", 0, "probability a completed query is re-checked against the centralized oracle (0 = off); any violation exits 3")
		maxErrorRate = flag.Float64("max-error-rate", 1, "fail (exit 1) when (errors+deadline)/requests exceeds this")

		sloP99     = flag.Duration("slo-p99", 0, "SLO: windowed p99 scheduled-arrival latency must stay under this (0 = off)")
		sloErrRate = flag.Float64("slo-error-rate", 0, "SLO: windowed error rate must stay under this fraction (0 = off)")
		sloTTFR    = flag.Duration("slo-ttfr-p95", 0, "SLO: windowed p95 time-to-first-result must stay under this (0 = off)")
		sloEvery   = flag.Duration("slo-interval", 2*time.Second, "SLO evaluation cadence during the run")
		sloStrict  = flag.Bool("slo-strict", false, "exit 1 when any SLO is breached at the final evaluation")

		debugAddr    = flag.String("debug-addr", "", "serve /metrics, /vars, /slostatusz, /queryz and /debug/pprof/ here during the run")
		queryzRetain = flag.Int("queryz-retain", 0, "delivery-curve digests retained for /queryz (0 = default of 64)")
		flightDir    = flag.String("flight-dir", "", "directory for flight-recorder dumps on sustained SLO breach")
		quiet        = flag.Bool("quiet", false, "suppress per-iteration progress lines")
	)
	flag.Parse()

	if err := experiments.ValidateProfile(*profile); err != nil {
		fmt.Fprintf(os.Stderr, "dsud-loadgen: %v\n", err)
		return 2
	}
	var algorithm dsq.Algorithm
	switch *algo {
	case "dsud":
		algorithm = dsq.DSUD
	case "edsud":
		algorithm = dsq.EDSUD
	default:
		fmt.Fprintf(os.Stderr, "dsud-loadgen: unknown algorithm %q (want dsud or edsud)\n", *algo)
		return 2
	}
	if *mode != "protocol" && *mode != "materialized" {
		fmt.Fprintf(os.Stderr, "dsud-loadgen: unknown mode %q (want protocol or materialized)\n", *mode)
		return 2
	}
	if (*addrs == "") == !*selfHost {
		fmt.Fprintf(os.Stderr, "dsud-loadgen: need exactly one of -addrs or -self-host\n")
		flag.Usage()
		return 2
	}

	siteAddrs := strings.Split(*addrs, ",")
	if *selfHost {
		var stop func()
		var err error
		siteAddrs, stop, err = experiments.StartLocalSites(*n, *sites, *genSeed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsud-loadgen: self-host: %v\n", err)
			return 1
		}
		defer stop()
		*dims = experiments.DefaultDims
		if !*quiet {
			fmt.Printf("dsud-loadgen: self-hosting %d loopback sites (%d tuples)\n", *sites, *n)
		}
	}

	cluster, err := dsq.Connect(dsq.ClusterConfig{Addrs: siteAddrs, Dims: *dims})
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsud-loadgen: connect: %v\n", err)
		return 1
	}
	defer cluster.Close()

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	// Instrumentation: the scheduled-arrival window (what a caller feels
	// under load, queueing included), the service window (cluster-side
	// elapsed, what the coordinator worked), and time-to-first-result.
	reg := dsq.NewMetrics()
	sched := obs.NewWindow(obs.DefWindowWidth)
	service := obs.NewWindow(obs.DefWindowWidth)
	first := obs.NewWindow(obs.DefWindowWidth)
	cluster.SetLatencyWindows(service, first)
	obs.ExposeWindow(reg, "dsud_loadgen_request_window_seconds", sched)
	obs.ExposeWindow(reg, "dsud_loadgen_service_window_seconds", service)
	obs.ExposeWindow(reg, "dsud_loadgen_ttfr_window_seconds", first)
	requests := reg.Counter("dsud_loadgen_requests_total")
	failures := reg.Counter("dsud_loadgen_failures_total")

	fr := dsq.NewFlightRecorder(0)
	if *flightDir != "" {
		fr.SetDumpDir(*flightDir)
	}
	cluster.SetFlightRecorder(fr)
	plog := dsq.NewProgressLog(*queryzRetain)
	cluster.SetProgressLog(plog)

	// With a maintenance mix, the §5.4 update path gets its own latency
	// window and dsud_update_* counters alongside the query windows.
	var updWindow *obs.Window
	if *updFrac > 0 {
		updWindow = obs.NewWindow(obs.DefWindowWidth)
		obs.ExposeWindow(reg, "dsud_update_latency_seconds", updWindow)
	}

	// -mode materialized warms a coordinator-side serving tier once and
	// answers every query from its sorted prefix; the update stream (if
	// any) flows through the same tier so reads stay exact.
	var server *dsq.Server
	if *mode == "materialized" {
		server, err = cluster.Serve(ctx, dsq.ServeConfig{Floor: *threshold, Algorithm: algorithm, Metrics: reg})
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsud-loadgen: serve: %v\n", err)
			return 1
		}
		if !*quiet {
			st := server.Stats()
			fmt.Printf("dsud-loadgen: materialized tier warm: %d entries at floor %g\n", st.Entries, st.Floor)
		}
	}

	var objectives []slo.Objective
	if *sloP99 > 0 {
		objectives = append(objectives, slo.Latency("query_p99", sched, 0.99, *sloP99))
	}
	if *sloErrRate > 0 {
		objectives = append(objectives, slo.ErrorRate("error_rate", requests.Value, failures.Value, *sloErrRate))
	}
	if *sloTTFR > 0 {
		objectives = append(objectives, slo.Latency("ttfr_p95", first, 0.95, *sloTTFR))
	}
	mon := slo.New(objectives...)
	mon.Instrument(reg)
	mon.OnSustainedBreach(func(name string) {
		fmt.Fprintf(os.Stderr, "dsud-loadgen: SLO %q in sustained breach\n", name)
		if *flightDir != "" {
			if path, err := fr.Dump("slo-breach-" + name); err != nil {
				fmt.Fprintf(os.Stderr, "dsud-loadgen: flight dump: %v\n", err)
			} else {
				fmt.Fprintf(os.Stderr, "dsud-loadgen: flight dump -> %s\n", path)
			}
		}
	})

	if *debugAddr != "" {
		extras := map[string]http.Handler{
			"/slostatusz":    mon.Handler(),
			"/debug/flightz": fr.Handler(),
			"/queryz":        plog.Handler(),
		}
		if server != nil {
			extras["/servez"] = server.Handler()
		}
		mux := obs.DebugMux(reg, extras)
		lis, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsud-loadgen: debug listen: %v\n", err)
			return 1
		}
		fmt.Printf("dsud-loadgen: debug endpoint on http://%s/slostatusz\n", lis.Addr())
		go http.Serve(lis, mux)
	}

	var auditor *dsq.Auditor
	if *auditFrac > 0 {
		auditor = dsq.NewAuditor(dsq.AuditConfig{Fraction: *auditFrac}, reg)
	}

	if len(objectives) > 0 {
		go mon.Run(ctx, *sloEvery)
	}

	opts := experiments.SoakOptions{
		RPS:            *rps,
		Duration:       *duration,
		Iterations:     *iters,
		Workers:        *workers,
		Deadline:       *deadline,
		Threshold:      *threshold,
		Algorithm:      algorithm,
		UpdateFraction: *updFrac,
		Profile:        *profile,
		BurstFactor:    *burstF,
		BurstPeriod:    *burstP,
		Seed:           *seed,
		Window:         sched,
		UpdateWindow:   updWindow,
		UpdateMetrics:  reg,
		Auditor:        auditor,
		Requests:       requests,
		Failures:       failures,
	}
	if server != nil {
		opts.Server = server
		opts.Mode = dsq.ModeMaterialized
	}
	if !*quiet {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "dsud-loadgen: "+format+"\n", args...)
		}
	}

	res, err := experiments.Soak(ctx, cluster, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsud-loadgen: %v\n", err)
		return 1
	}

	writeSummary(os.Stdout, res)
	if server != nil {
		st := server.Stats()
		fmt.Printf("serving: %d hits, %d misses, %d refreshes, %d coalesced (%d entries, version %d)\n",
			st.Hits, st.Misses, st.Refreshes, st.Coalesced, st.Entries, st.Version)
	}
	status := 0

	if len(objectives) > 0 {
		statuses := mon.Evaluate()
		fmt.Println()
		slo.WriteText(os.Stdout, statuses)
		if *sloStrict {
			for _, st := range statuses {
				if st.Breached {
					fmt.Fprintf(os.Stderr, "dsud-loadgen: SLO %q breached at final evaluation (-slo-strict)\n", st.Name)
					status = 1
				}
			}
		}
	}

	if res.ErrorRate() > *maxErrorRate {
		fmt.Fprintf(os.Stderr, "dsud-loadgen: error rate %.3f%% exceeds -max-error-rate %.3f%%\n",
			res.ErrorRate()*100, *maxErrorRate*100)
		status = 1
	}
	if auditor != nil {
		fmt.Printf("audit: %d sampled, %d violation(s)\n", auditor.Audited(), auditor.Violations())
		if auditor.Violations() > 0 {
			fmt.Fprintf(os.Stderr, "dsud-loadgen: online audit found invariant violations under load\n")
			return 3
		}
	}
	return status
}

// writeSummary renders the human-readable result block.
func writeSummary(w *os.File, res *experiments.SoakResult) {
	ok := res.Requests - res.Errors - res.Deadline
	fmt.Fprintf(w, "soak: %s profile, %.0f rps target, %d iteration(s) x %.1fs, %d workers\n",
		res.Profile, res.TargetRPS, res.Iterations, res.DurationSeconds, res.Workers)
	fmt.Fprintf(w, "outcomes: %d ok, %d error, %d deadline (%.3f%% error rate)\n",
		ok, res.Errors, res.Deadline, res.ErrorRate()*100)
	fmt.Fprintf(w, "throughput: %.1f q/s median (CV %.2f)\n", res.ThroughputQPS.Median, res.ThroughputQPS.CV)
	for _, key := range experiments.SoakPercentiles() {
		d := res.Percentile(key)
		fmt.Fprintf(w, "latency %s: %.2fms median over %d iteration(s) (min %.2f, max %.2f)\n",
			key, d.Median, d.N, d.Min, d.Max)
	}
}
