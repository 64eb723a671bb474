// Command dsud-bench regenerates the paper's evaluation figures. Each
// experiment prints one aligned text table per sub-figure, with the same
// series the paper plots.
//
// Usage:
//
//	dsud-bench -exp fig8 [-n 60000] [-queries 2] [-sites 60] [-seed 1]
//	dsud-bench -exp all -paper       # full 2M-tuple paper scale (slow)
//	dsud-bench -exp fig12 -trace-out phases.txt   # also dump phase timings
//	dsud-bench -exp fig8 -profile-dir profiles    # CPU/heap/mutex profiles
//
// Experiments: fig8 fig9 fig10 fig11 fig12 fig13 fig14 eq6, or "all".
// With -trace-out the progressiveness experiments (fig12/fig13) re-run each
// workload with a query trace attached and write per-phase timing tables
// (To-Server, Feedback-Select, Server-Delivery, Local-Pruning) to the file.
//
// With -profile-dir the process records cpu.pprof, heap.pprof and
// mutex.pprof into the directory, and query execution is wrapped in
// runtime/pprof labels so samples attribute to (algorithm, phase,
// query_id): `go tool pprof -tags profiles/cpu.pprof`.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	os.Exit(run())
}

// run carries the whole CLI so profile writers and other defers flush
// before the exit code is set (os.Exit skips defers).
func run() int {
	var (
		exp     = flag.String("exp", "", "experiment id ("+strings.Join(experiments.IDs(), ", ")+", or all)")
		n       = flag.Int("n", experiments.DefaultScale.N, "global cardinality N")
		queries = flag.Int("queries", experiments.DefaultScale.Queries, "repetitions to average")
		sites   = flag.Int("sites", 0, "override default site count (0 = paper default 60)")
		seed    = flag.Int64("seed", 1, "generation seed")
		paper   = flag.Bool("paper", false, "use the paper's full Table 3 scale (N=2,000,000, 10 queries)")
		format  = flag.String("format", "table", "output format: table|csv")

		traceOut   = flag.String("trace-out", "", "write per-phase timing tables for fig12/fig13 runs to this file")
		profileDir = flag.String("profile-dir", "", "write cpu.pprof/heap.pprof/mutex.pprof here; enables per-phase pprof labels")
	)
	flag.Parse()
	if *exp == "" {
		flag.Usage()
		return 2
	}

	if *profileDir != "" {
		stop, err := startProfiling(*profileDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsud-bench: profile-dir: %v\n", err)
			return 1
		}
		defer stop()
	}

	scale := experiments.Scale{N: *n, Queries: *queries, Seed: *seed, Sites: *sites}
	if *paper {
		scale = experiments.PaperScale
		scale.Sites = *sites
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}

	var traceFile *os.File
	if *traceOut != "" {
		var err error
		traceFile, err = os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsud-bench: trace-out: %v\n", err)
			return 1
		}
		defer traceFile.Close()
	}

	for _, id := range ids {
		start := time.Now()
		figs, err := experiments.Run(ctx, id, scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsud-bench: %s: %v\n", id, err)
			return 1
		}
		for _, fig := range figs {
			var err error
			if *format == "csv" {
				err = fig.RenderCSV(os.Stdout)
			} else {
				err = fig.Render(os.Stdout)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "dsud-bench: render: %v\n", err)
				return 1
			}
		}
		if *format != "csv" {
			fmt.Printf("(%s completed in %v at N=%d, %d repetition(s))\n\n", id, time.Since(start).Round(time.Millisecond), scale.N, scale.Queries)
		}
		if traceFile != nil && (id == "fig12" || id == "fig13") {
			tables, err := experiments.TracePhases(ctx, id, scale)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dsud-bench: %s trace: %v\n", id, err)
				return 1
			}
			for _, table := range tables {
				if err := table.Render(traceFile); err != nil {
					fmt.Fprintf(os.Stderr, "dsud-bench: trace-out: %v\n", err)
					return 1
				}
			}
			fmt.Printf("(%s phase-timing tables appended to %s)\n\n", id, *traceOut)
		}
	}
	return 0
}

// startProfiling begins CPU profiling into dir and flips on the
// per-phase pprof labels; the returned stop writes the heap and mutex
// profiles and closes everything.
func startProfiling(dir string) (stop func(), err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cpu, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		cpu.Close()
		return nil, err
	}
	obs.SetProfiling(true)
	runtime.SetMutexProfileFraction(5)
	return func() {
		pprof.StopCPUProfile()
		cpu.Close()
		writeProfile(dir, "heap.pprof", func(f *os.File) error {
			runtime.GC() // materialise the live-heap numbers
			return pprof.WriteHeapProfile(f)
		})
		writeProfile(dir, "mutex.pprof", func(f *os.File) error {
			return pprof.Lookup("mutex").WriteTo(f, 0)
		})
		fmt.Fprintf(os.Stderr, "dsud-bench: profiles written to %s (inspect labels with `go tool pprof -tags %s`)\n",
			dir, filepath.Join(dir, "cpu.pprof"))
	}, nil
}

// writeProfile captures one named profile, reporting rather than failing
// on error: a missing mutex profile must not sink the benchmark run.
func writeProfile(dir, name string, write func(*os.File) error) {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsud-bench: %s: %v\n", name, err)
		return
	}
	defer f.Close()
	if err := write(f); err != nil {
		fmt.Fprintf(os.Stderr, "dsud-bench: %s: %v\n", name, err)
	}
}
