// Command dsud-site runs one local site of the distributed skyline system
// as a TCP daemon: it loads a partition produced by dsud-gen, indexes it in
// a PR-tree, and serves the DSUD wire protocol until interrupted.
//
// Usage:
//
//	dsud-site -data /tmp/parts/site-0.dsud -addr 127.0.0.1:7101 -id 0
//
// With -http the daemon serves /healthz, /statusz (alias /status) and
// /debug/flightz on an ops address; with -debug-addr it additionally
// serves /metrics (Prometheus), /vars (JSON) and /debug/pprof/ there. On
// SIGINT/SIGTERM it stops accepting requests, drains in-flight queries
// for -drain, and (with -flight-dir) writes a final flight-recorder dump
// and metrics snapshot before exiting.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/slo"
	"repro/internal/site"
	"repro/internal/transport"
)

func main() {
	var (
		data       = flag.String("data", "", "partition file written by dsud-gen (required)")
		addr       = flag.String("addr", "127.0.0.1:0", "listen address")
		httpAddr   = flag.String("http", "", "optional ops address serving GET /healthz, /statusz and /debug/flightz")
		debugAddr  = flag.String("debug-addr", "", "optional debug address serving /metrics, /vars, /healthz, /statusz, /debug/flightz and /debug/pprof/")
		id         = flag.Int("id", 0, "site index (diagnostics only)")
		logLevel   = flag.String("log-level", "", "structured log level: debug|info|warn|error (empty = logging off)")
		logFormat  = flag.String("log-format", "text", "structured log format: text|json")
		slowReq    = flag.Duration("slow-request", 0, "log requests at least this slow at Warn (0 = off; needs -log-level)")
		flightDir  = flag.String("flight-dir", "", "directory for flight-recorder dumps (slow queries, audit failures, shutdown)")
		flightSize = flag.Int("flight-size", flight.DefaultSize, "flight-recorder ring capacity in query records")
		drain      = flag.Duration("drain", 10*time.Second, "how long shutdown waits for in-flight requests before closing hard")
		conc       = flag.Int("concurrency", transport.DefaultWorkerLimit, "max requests served concurrently per connection")
		sloP99     = flag.Duration("slo-p99", 0, "SLO: windowed p99 request latency must stay under this; serves /slostatusz and dumps the flight recorder on sustained breach (0 = off)")
		sloEvery   = flag.Duration("slo-interval", 10*time.Second, "SLO evaluation cadence (needs -slo-p99)")
	)
	flag.Parse()
	if *data == "" {
		flag.Usage()
		os.Exit(2)
	}

	part, dims, err := dataset.Load(*data)
	if err != nil {
		fatalf("%v", err)
	}
	eng := site.New(*id, part, dims, 0)

	// The flight recorder is always on — it is the post-hoc witness for
	// "what was this site doing just before things went wrong".
	fr := flight.New(*flightSize)
	if *flightDir != "" {
		fr.SetDumpDir(*flightDir)
	}
	eng.SetFlightRecorder(fr)

	if *logLevel != "" {
		level, err := obs.ParseLogLevel(*logLevel)
		if err != nil {
			fatalf("%v", err)
		}
		logger, err := obs.NewLogger(os.Stderr, *logFormat, level)
		if err != nil {
			fatalf("%v", err)
		}
		eng.SetLogger(logger.With("site", *id), *slowReq)
	}

	// Always instrumented so the shutdown snapshot exists even without a
	// debug listener; serving the registry stays opt-in via -debug-addr.
	reg := obs.NewRegistry()
	eng.Instrument(reg)

	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("listen: %v", err)
	}
	srv := transport.NewServer(eng, nil)
	if *conc > 0 {
		srv.SetWorkerLimit(*conc)
	}
	// Wire-level frame accounting: every frame in or out bumps
	// dsud_site_frames_total / dsud_site_frame_bytes_total broken down by
	// direction and frame type. Counters are pre-registered per type so
	// the per-frame tap is an array index and two atomic adds. (Frame
	// payloads are not captured here — the gob streams are stateful per
	// connection; transcript capture happens at the coordinator.)
	type frameCtr struct{ frames, bytes *obs.Counter }
	frameCtrs := func(dir string) [8]frameCtr {
		var c [8]frameCtr
		for t := 0; t < len(c); t++ {
			name := codec.FrameType(t).String()
			if t == 0 || t > 5 {
				name = "other"
			}
			c[t] = frameCtr{
				frames: reg.Counter("dsud_site_frames_total", "site", fmt.Sprint(*id), "dir", dir, "type", name),
				bytes:  reg.Counter("dsud_site_frame_bytes_total", "site", fmt.Sprint(*id), "dir", dir, "type", name),
			}
		}
		return c
	}
	inCtrs, outCtrs := frameCtrs("in"), frameCtrs("out")
	srv.SetFrameTap(func(dir uint8, t codec.FrameType, n int) {
		ctrs := &inCtrs
		if dir == transport.TapOutbound {
			ctrs = &outCtrs
		}
		i := int(t)
		if i <= 0 || i > 5 {
			i = 0
		}
		ctrs[i].frames.Inc()
		ctrs[i].bytes.Add(int64(n))
	})
	// Surface mux worker-pool saturation in /statusz and the windowed
	// request-latency quantiles (p50/p95/p99 over the last ~10-20s) in
	// /metrics — the live feed dsud-top renders.
	eng.SetWorkerStats(srv.WorkerStats)
	obs.ExposeWindow(reg, "dsud_site_request_window_seconds", eng.Window(), "site", fmt.Sprint(*id))
	// Telemetry push plane: coordinators subscribe and receive one
	// snapshot per interval; /statusz reports the publisher's own counters
	// so operators can see who is listening and when the last push went out.
	srv.SetTelemetrySource(eng)
	eng.SetTelemetryStats(srv.TelemetryStats)
	fmt.Printf("dsud-site %d serving %d tuples (%d dims) on %s\n", *id, len(part), dims, lis.Addr())

	// Declarative site-level SLO over the windowed request latency:
	// evaluated in the background, served at /slostatusz, and a sustained
	// breach leaves a flight-recorder dump behind (with -flight-dir).
	var mon *slo.Monitor
	if *sloP99 > 0 {
		mon = slo.New(slo.Latency("request_p99", eng.Window(), 0.99, *sloP99))
		mon.Instrument(reg)
		eng.SetSLOMonitor(mon) // pushed telemetry carries the cached SLO state
		mon.OnSustainedBreach(func(name string) {
			fmt.Fprintf(os.Stderr, "dsud-site %d: SLO %q in sustained breach\n", *id, name)
			if *flightDir != "" {
				if path, err := fr.Dump("slo-breach-" + name); err != nil {
					fmt.Fprintf(os.Stderr, "dsud-site %d: flight dump: %v\n", *id, err)
				} else {
					fmt.Fprintf(os.Stderr, "dsud-site %d: flight dump -> %s\n", *id, path)
				}
			}
		})
		go mon.Run(context.Background(), *sloEvery)
	}

	if *httpAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/status", eng.StatusHandler()) // back-compat alias of /statusz
		mux.Handle("/statusz", eng.StatusHandler())
		mux.Handle("/healthz", healthzHandler())
		mux.Handle("/debug/flightz", fr.Handler())
		if mon != nil {
			mux.Handle("/slostatusz", mon.Handler())
		}
		opsLis, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fatalf("ops listen: %v", err)
		}
		fmt.Printf("dsud-site %d ops endpoint on http://%s/statusz\n", *id, opsLis.Addr())
		go http.Serve(opsLis, mux)
	}

	if *debugAddr != "" {
		extra := map[string]http.Handler{
			"/status":        eng.StatusHandler(), // back-compat alias of /statusz
			"/statusz":       eng.StatusHandler(),
			"/debug/flightz": fr.Handler(),
		}
		if mon != nil {
			extra["/slostatusz"] = mon.Handler()
		}
		mux := obs.DebugMux(reg, extra)
		dbgLis, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fatalf("debug listen: %v", err)
		}
		fmt.Printf("dsud-site %d debug endpoint on http://%s/metrics\n", *id, dbgLis.Addr())
		go http.Serve(dbgLis, mux)
	}

	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()

	interrupt := make(chan os.Signal, 1)
	signal.Notify(interrupt, os.Interrupt, syscall.SIGTERM)
	select {
	case <-interrupt:
		fmt.Printf("dsud-site %d: draining in-flight requests (up to %v)\n", *id, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		err := srv.Shutdown(ctx)
		cancel()
		<-done
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsud-site %d: shutdown: %v\n", *id, err)
		}
		finalSnapshot(fr, reg, *flightDir, *id)
	case err := <-done:
		if err != nil {
			fatalf("serve: %v", err)
		}
	}
}

// finalSnapshot writes the shutdown flight dump and a metrics snapshot
// into dir, the operator's last view of the process. Best-effort: a
// failed write is reported, not fatal — the process is exiting anyway.
func finalSnapshot(fr *flight.Recorder, reg *obs.Registry, dir string, id int) {
	if dir == "" {
		return
	}
	if path, err := fr.Dump("shutdown"); err != nil {
		fmt.Fprintf(os.Stderr, "dsud-site %d: flight dump: %v\n", id, err)
	} else {
		fmt.Printf("dsud-site %d: flight dump -> %s\n", id, path)
	}
	path := filepath.Join(dir, fmt.Sprintf("metrics-site%d-%d.json", id, time.Now().UnixNano()))
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsud-site %d: metrics snapshot: %v\n", id, err)
		return
	}
	if err := reg.WriteJSON(f); err != nil {
		fmt.Fprintf(os.Stderr, "dsud-site %d: metrics snapshot: %v\n", id, err)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "dsud-site %d: metrics snapshot: %v\n", id, err)
		return
	}
	fmt.Printf("dsud-site %d: metrics snapshot -> %s\n", id, path)
}

// healthzHandler is the ops-mux liveness probe, matching the debug mux's
// /healthz contract: GET/HEAD only, application/json.
func healthzHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
	})
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "dsud-site: "+format+"\n", args...)
	os.Exit(1)
}
