// Command dsud-site runs one local site of the distributed skyline system
// as a TCP daemon: it loads a partition produced by dsud-gen, indexes it in
// a PR-tree, and serves the DSUD wire protocol until interrupted.
//
// Usage:
//
//	dsud-site -data /tmp/parts/site-0.dsud -addr 127.0.0.1:7101 -id 0
//
// With -debug-addr the daemon serves /healthz, /debug/flightz, /metrics
// (Prometheus), /vars (JSON) and /debug/pprof/ on one HTTP address. Its
// status is the KindStatus reply a coordinator polls (dsud-query
// -cluster-status, or -watch and its /clusterz). The site judges no
// objectives: its status reports its latency window, and a watching
// coordinator (dsud-query -watch -slo-p99) judges it. On SIGINT/SIGTERM it
// stops accepting requests, drains in-flight queries for -drain, and (with
// -flight-dir) writes a final flight-recorder dump and metrics snapshot
// before exiting.
package main

import (
	"context"
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
	"repro/internal/site"
	"repro/internal/transport"
)

func main() {
	var (
		data       = flag.String("data", "", "partition file written by dsud-gen (required)")
		addr       = flag.String("addr", "127.0.0.1:0", "listen address")
		debugAddr  = flag.String("debug-addr", "", "optional debug address serving /metrics, /vars, /healthz, /debug/flightz and /debug/pprof/")
		id         = flag.Int("id", 0, "site index (diagnostics only)")
		logLevel   = flag.String("log-level", "", "structured log level: debug|info|warn|error (empty = logging off)")
		logFormat  = flag.String("log-format", "text", "structured log format: text|json")
		slowReq    = flag.Duration("slow-request", 0, "log requests at least this slow at Warn (0 = off; needs -log-level)")
		flightDir  = flag.String("flight-dir", "", "directory for flight-recorder dumps (slow queries, audit failures, shutdown)")
		flightSize = flag.Int("flight-size", flight.DefaultSize, "flight-recorder ring capacity in query records")
		drain      = flag.Duration("drain", 10*time.Second, "how long shutdown waits for in-flight requests before closing hard")
		conc       = flag.Int("concurrency", transport.DefaultWorkerLimit, "max requests served concurrently per connection")
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
	frameCtrs := func(dir string) [4]frameCtr {
		var c [4]frameCtr
		for t := 0; t < len(c); t++ {
			name := codec.FrameType(t).String()
			if t == 0 {
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
		if i >= len(*ctrs) {
			i = 0
		}
		ctrs[i].frames.Inc()
		ctrs[i].bytes.Add(int64(n))
	})
	// Surface mux worker-pool saturation in the status a watching
	// coordinator polls, and the windowed request-latency quantiles
	// (p50/p95/p99 over the last ~10-20s) in /metrics.
	eng.SetWorkerStats(srv.WorkerStats)
	obs.ExposeWindow(reg, "dsud_site_request_window_seconds", eng.Window(), "site", fmt.Sprint(*id))
	fmt.Printf("dsud-site %d serving %d tuples (%d dims) on %s\n", *id, len(part), dims, lis.Addr())

	if *debugAddr != "" {
		mux := obs.DebugMux(reg, map[string]http.Handler{"/debug/flightz": fr.Handler()})
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

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "dsud-site: "+format+"\n", args...)
	os.Exit(1)
}
