// Command dsud-query runs a distributed skyline query as the coordinator
// H against running dsud-site daemons, printing qualified tuples as they
// are discovered (progressively) and the communication statistics at the
// end.
//
// Usage:
//
//	dsud-query -addrs 127.0.0.1:7101,127.0.0.1:7102 -dims 3 -q 0.3 -algo edsud
//
// With -cluster-status it instead polls every site's status once and
// prints the cluster watch's table, one row per site (a site that does not
// answer, or refuses the dial, is a STALE row with its error; exit 1
// unless every site is fresh). With -watch it runs as a long-lived
// watching coordinator: it polls every site's status once per
// -poll-interval, keeps a short per-site history and serves it at
// /clusterz (JSON, or the same table with a p99 history column at
// ?format=text) and as a Prometheus federation view on -debug-addr. With
// -slo-p99 the watch also judges each site's and the merged cluster's
// windowed p99 against that target. With -mode materialized|auto and
// -debug-addr, the serving tier's dsud_serve_* series are on /metrics.
// With -audit-fraction the completed query is re-checked against exact
// oracles at that sampling rate, and with -flight-dir the coordinator's
// flight recorder is dumped on exit (and automatically on slow queries or
// audit violations). With -explain the finished query is rendered as an
// explain report: per-site contribution, per-phase timing and the ASCII
// delivery timeline of the curve its /debug/flightz record carries.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/dsq"
	"repro/internal/obs"
)

func main() {
	var (
		addrs   = flag.String("addrs", "", "comma-separated site addresses (required)")
		dims    = flag.Int("dims", 0, "data dimensionality (required unless -cluster-status)")
		q       = flag.Float64("q", 0.3, "probability threshold in (0,1]")
		algo    = flag.String("algo", "edsud", "algorithm: baseline|dsud|edsud")
		sub     = flag.String("subspace", "", "comma-separated dimension indices (empty = full space)")
		quiet   = flag.Bool("quiet", false, "suppress per-tuple output")
		mode    = flag.String("mode", "protocol", "answer mode: protocol|materialized|auto (non-protocol modes warm a materialized serving tier first; see docs/SERVING.md)")
		floor   = flag.Float64("serve-floor", 0, "materialization floor threshold for -mode materialized|auto (0 = use -q)")
		topk    = flag.Int("topk", 0, "return only the K most probable answers (0 = all)")
		trace   = flag.Bool("trace", false, "print every protocol step")
		stats   = flag.Bool("stats", false, "print the per-phase timing table after the query")
		explain = flag.Bool("explain", false, "render the per-query explain report after the query: per-site contribution and wait/service time, phase breakdown and the ASCII delivery timeline")

		clusterStatus = flag.Bool("cluster-status", false, "poll every site's status once over the wire, print the cluster table (an unreachable site is a STALE row) and exit (1 unless every site answered)")
		watch         = flag.Bool("watch", false, "run as a watching coordinator: poll every site's status and serve /clusterz plus the cluster federation view on -debug-addr until interrupted (no query runs)")
		pollInterval  = flag.Duration("poll-interval", time.Second, "status poll cadence in -watch mode; a site that misses one poll is stale")
		sloP99        = flag.Duration("slo-p99", 0, "in -watch mode, the windowed p99 request latency each site and the merged cluster must stay under; a breach for 3 polls is sustained (0 = no objectives)")
		auditFraction = flag.Float64("audit-fraction", 0, "fraction of completed queries re-checked against exact oracles (0 = off, 1 = every query)")
		auditMC       = flag.Int("audit-mc-samples", 0, "Monte-Carlo possible worlds per audited query (0 = exact checks only)")
		flightDir     = flag.String("flight-dir", "", "directory for flight-recorder dumps (slow queries, audit violations, exit)")
		flightSize    = flag.Int("flight-size", 0, "flight-recorder ring capacity in query records (0 = default)")
		record        = flag.String("record", "", "directory for a black-box transcript of this query: every coordinator<->site message is captured into a replayable .dstr file (consume with dsud-replay)")

		debugAddr = flag.String("debug-addr", "", "optional debug address serving /metrics (with the serving tier's dsud_serve_* series under -mode materialized|auto), /vars, /healthz, /debug/flightz and /debug/pprof/")
		logLevel  = flag.String("log-level", "", "structured log level: debug|info|warn|error (empty = logging off)")
		logFormat = flag.String("log-format", "text", "structured log format: text|json")
		slowQuery = flag.Duration("slow-query", 0, "log queries at least this slow at Warn with a phase breakdown (0 = off; needs -log-level)")
	)
	flag.Parse()
	if *addrs == "" || (!*clusterStatus && !*watch && *dims <= 0) {
		flag.Usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *watch {
		if *debugAddr == "" {
			fatalf("-watch needs -debug-addr to serve /clusterz")
		}
		if err := watchCluster(ctx, *addrs, *dims, *debugAddr, *pollInterval, *sloP99, *logLevel, *logFormat); err != nil {
			fatalf("%v", err)
		}
		return
	}

	if *clusterStatus {
		cluster, err := statusCluster(dsq.ClusterConfig{Addrs: strings.Split(*addrs, ","), Dims: *dims})
		if err != nil {
			fatalf("%v", err)
		}
		defer cluster.Close()
		// One watch sweep, bounded by its interval, so a site that echoes
		// the hello but never answers reads STALE instead of hanging the
		// command, as does a site that refuses the dial.
		w := cluster.Watch(ctx, statusTimeout, 0)
		w.Stop()
		w.WriteText(os.Stdout)
		if doc := w.Snapshot(false); doc.Fresh < doc.Sites {
			os.Exit(1)
		}
		return
	}

	var algorithm dsq.Algorithm
	switch *algo {
	case "baseline":
		algorithm = dsq.Baseline
	case "dsud":
		algorithm = dsq.DSUD
	case "edsud":
		algorithm = dsq.EDSUD
	default:
		fatalf("unknown algorithm %q", *algo)
	}

	var subspace []int
	if *sub != "" {
		for _, part := range strings.Split(*sub, ",") {
			var j int
			if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &j); err != nil {
				fatalf("bad subspace index %q", part)
			}
			subspace = append(subspace, j)
		}
	}

	// The coordinator-side flight recorder is always on: it holds each
	// query's one record (outcome, costs, delivery curve, transcript
	// path). -flight-dir additionally enables dumps (slow queries, audit
	// violations, exit).
	fr := dsq.NewFlightRecorder(*flightSize)
	if *flightDir != "" {
		fr.SetDumpDir(*flightDir)
	}
	reg := dsq.NewMetrics()
	var logger *slog.Logger
	if *logLevel != "" {
		level, err := dsq.ParseLogLevel(*logLevel)
		if err != nil {
			fatalf("%v", err)
		}
		if logger, err = dsq.NewLogger(os.Stderr, *logFormat, level); err != nil {
			fatalf("%v", err)
		}
	}

	cluster, err := dsq.Connect(dsq.ClusterConfig{
		Addrs:          strings.Split(*addrs, ","),
		Dims:           *dims,
		Logger:         logger,
		Metrics:        reg,
		FlightRecorder: fr,
		TranscriptDir:  *record,
	})
	if err != nil {
		fatalf("%v", err)
	}
	defer cluster.Close()

	var queryMode dsq.Mode
	switch *mode {
	case "protocol":
		queryMode = dsq.ModeProtocol
	case "materialized":
		queryMode = dsq.ModeMaterialized
	case "auto":
		queryMode = dsq.ModeAuto
	default:
		fatalf("unknown mode %q", *mode)
	}
	var server *dsq.Server
	if queryMode != dsq.ModeProtocol {
		// Warm the materialized tier with one protocol round at the floor
		// threshold; the query below is then a sorted-prefix read.
		f := *floor
		if f == 0 {
			f = *q
		}
		server, err = cluster.Serve(ctx, dsq.ServeConfig{
			Floor:     f,
			Dims:      subspace,
			Algorithm: algorithm,
		})
		if err != nil {
			fatalf("serve: %v", err)
		}
	}

	if *debugAddr != "" {
		lis, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fatalf("debug listen: %v", err)
		}
		fmt.Printf("debug endpoint on http://%s/metrics\n", lis.Addr())
		go http.Serve(lis, obs.DebugMux(reg, map[string]http.Handler{"/debug/flightz": fr.Handler()}))
	}

	opts := dsq.Options{Threshold: *q, Dims: subspace, Algorithm: algorithm, TopK: *topk, Mode: queryMode}
	if logger != nil {
		opts.SlowQuery = *slowQuery
	}
	if *stats || *explain || opts.SlowQuery > 0 {
		// The phase table, the per-site wait/service split and a slow
		// query's logged phase durations are the trace's.
		opts.Trace = dsq.NewTrace()
	}
	if *record != "" {
		opts.Record = true
	}
	if *trace {
		opts.OnEvent = func(e dsq.Event) { fmt.Println(e) }
	}
	if !*quiet {
		opts.OnResult = func(res dsq.Result) {
			fmt.Printf("skyline %s  P=%.4f  (site %d)\n", res.Tuple.Point, res.GlobalProb, res.Site)
		}
	}
	var report *dsq.Report
	if server != nil {
		report, err = server.Query(ctx, opts)
	} else {
		report, err = cluster.Query(ctx, opts)
	}
	if err != nil {
		finalSnapshot(fr, reg, *flightDir)
		fatalf("query: %v", err)
	}
	bw := report.Bandwidth
	fmt.Printf("\n%d skyline tuple(s) in %v via %v (source %s)\n",
		len(report.Skyline), report.Elapsed.Round(1e6), algorithm, report.Source)
	fmt.Printf("bandwidth: %d tuples (%d up, %d down), %d messages, %d wire bytes\n",
		bw.Tuples(), bw.TuplesUp, bw.TuplesDown, bw.Messages, bw.Bytes)
	fmt.Printf("iterations: %d, broadcasts: %d, expunged: %d, locally pruned: %d\n",
		report.Iterations, report.Broadcasts, report.Expunged, report.PrunedLocal)
	if server != nil {
		st := server.Stats()
		fmt.Printf("serving: %d materialized entries at floor %g, hits=%d misses=%d refreshes=%d coalesced=%d\n",
			st.Entries, st.Floor, st.Hits, st.Misses, st.Refreshes, st.Coalesced)
	}
	// The query's own flight record names its transcript.
	if recs := fr.Snapshot(); *record != "" && len(recs) > 0 {
		switch last := recs[len(recs)-1]; {
		case last.TranscriptErr != "":
			fmt.Fprintf(os.Stderr, "dsud-query: transcript not recorded: %s\n", last.TranscriptErr)
		case last.Transcript != "":
			fmt.Printf("transcript: %s (%d requests) — replay with: dsud-replay %s\n",
				last.Transcript, last.Messages, last.Transcript)
		}
	}
	if *stats {
		fmt.Println()
		if err := opts.Trace.Summary().WriteTable(os.Stdout, time.Duration(report.Curve.TTFirstNS)); err != nil {
			fatalf("stats: %v", err)
		}
	}
	if *explain {
		fmt.Println()
		if err := dsq.WriteExplain(os.Stdout, report, opts.Trace); err != nil {
			fatalf("explain: %v", err)
		}
	}
	auditFailed := false
	if *auditFraction > 0 {
		auditor := dsq.NewAuditor(dsq.AuditConfig{
			Fraction:  *auditFraction,
			MCSamples: *auditMC,
			Logger:    logger,
			Flight:    fr,
		}, reg)
		outcome, err := auditor.MaybeAudit(ctx, cluster, opts, report)
		switch {
		case err != nil:
			fmt.Fprintf(os.Stderr, "dsud-query: audit could not run: %v\n", err)
		case outcome == nil:
			// Not sampled this time.
		case outcome.Clean():
			fmt.Printf("audit %s: clean (%d checks, %d skipped)\n",
				outcome.QueryID, outcome.Checks, outcome.SkippedChecks)
		default:
			auditFailed = true
			fmt.Fprintf(os.Stderr, "audit %s: %d VIOLATION(S) in %d checks:\n",
				outcome.QueryID, len(outcome.Violations), outcome.Checks)
			for _, v := range outcome.Violations {
				fmt.Fprintf(os.Stderr, "  %s\n", v)
			}
		}
	}
	finalSnapshot(fr, reg, *flightDir)
	if auditFailed {
		os.Exit(1)
	}
}

// finalSnapshot writes an exit flight dump and metrics snapshot into dir
// (no-op when -flight-dir is unset). Best-effort.
func finalSnapshot(fr *dsq.FlightRecorder, reg *dsq.Metrics, dir string) {
	if dir == "" {
		return
	}
	if path, err := fr.Dump("exit"); err != nil {
		fmt.Fprintf(os.Stderr, "dsud-query: flight dump: %v\n", err)
	} else {
		fmt.Printf("flight dump -> %s\n", path)
	}
	path := filepath.Join(dir, fmt.Sprintf("metrics-query-%d.json", time.Now().UnixNano()))
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsud-query: metrics snapshot: %v\n", err)
		return
	}
	if err := reg.WriteJSON(f); err != nil {
		fmt.Fprintf(os.Stderr, "dsud-query: metrics snapshot: %v\n", err)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "dsud-query: metrics snapshot: %v\n", err)
		return
	}
	fmt.Printf("metrics snapshot -> %s\n", path)
}

// statusTimeout bounds the -cluster-status sweep.
const statusTimeout = 5 * time.Second

// watchCluster is the -watch serve mode: the coordinator polls every
// site's status once per interval, judges the p99 objectives (p99 > 0),
// and serves /clusterz (JSON and ?format=text), the federation /metrics
// view and the usual debug endpoints until ctx is cancelled.
func watchCluster(ctx context.Context, addrs string, dims int, debugAddr string, interval, p99 time.Duration, logLevel, logFormat string) error {
	reg := dsq.NewMetrics()
	cfg := dsq.ClusterConfig{Addrs: strings.Split(addrs, ","), Dims: dims, Metrics: reg}
	if logLevel != "" {
		level, err := dsq.ParseLogLevel(logLevel)
		if err != nil {
			return err
		}
		if cfg.Logger, err = dsq.NewLogger(os.Stderr, logFormat, level); err != nil {
			return err
		}
	}
	cluster, err := statusCluster(cfg)
	if err != nil {
		return err
	}
	defer cluster.Close()
	w := cluster.Watch(ctx, interval, p99)
	defer w.Stop()
	w.Expose(reg)

	lis, err := net.Listen("tcp", debugAddr)
	if err != nil {
		return fmt.Errorf("debug listen: %w", err)
	}
	fmt.Printf("cluster watch on http://%s/clusterz (%d sites, poll interval %v)\n",
		lis.Addr(), cluster.Sites(), interval)
	srv := &http.Server{Handler: obs.DebugMux(reg, map[string]http.Handler{
		"/clusterz": w.Handler(),
	})}
	go func() {
		<-ctx.Done()
		srv.Close()
	}()
	if err := srv.Serve(lis); !errors.Is(err, http.ErrServerClosed) && ctx.Err() == nil {
		return err
	}
	return nil
}

// statusCluster opens the cluster a status sweep polls. Status polls ship
// no tuples, so any positive dims satisfies the constructor. The
// redialling transport dials lazily, inside the sweep: a site that is down
// reads STALE with its dial error instead of failing the open, and a
// restarted site answers the watch's next poll.
func statusCluster(cfg dsq.ClusterConfig) (*dsq.Cluster, error) {
	if cfg.Dims <= 0 {
		cfg.Dims = 1
	}
	cfg.RetryAttempts = 3
	return dsq.Connect(cfg)
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "dsud-query: "+format+"\n", args...)
	os.Exit(1)
}
