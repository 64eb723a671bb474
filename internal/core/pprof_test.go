package core

import (
	"bytes"
	"compress/gzip"
	"context"
	"io"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/round"
)

// With profiling off (the production default) the label path must be
// free: nil construction, no-op transitions, zero allocations. This is
// the guard the hot query loop relies on.
func TestProfLabelsZeroAllocWhenDisabled(t *testing.T) {
	obs.SetProfiling(false)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		p := newProfLabels(ctx, EDSUD, 7)
		for _, ph := range [...]Phase{PhaseToServer, PhaseFeedbackSelect, PhaseServerDelivery, PhaseLocalPruning} {
			p.step(round.Step{Kind: round.StepBegin, Phase: ph})
			p.step(round.Step{Kind: round.StepEnd, Phase: ph})
		}
		p.exit()
	})
	if allocs != 0 {
		t.Fatalf("disabled label path allocates %.1f per query, want 0", allocs)
	}
}

// With profiling on, every phase context must carry the full
// (algorithm, phase, query_id) attribution.
func TestProfLabelsCarryAttribution(t *testing.T) {
	obs.SetProfiling(true)
	defer obs.SetProfiling(false)
	p := newProfLabels(context.Background(), EDSUD, 42)
	if p == nil {
		t.Fatal("profiling enabled but labels nil")
	}
	for ph := Phase(0); ph < numPhases; ph++ {
		got := map[string]string{}
		pprof.ForLabels(p.phase[ph], func(k, v string) bool {
			got[k] = v
			return true
		})
		want := map[string]string{"algorithm": "e-dsud", "phase": ph.String(), "query_id": "42"}
		for k, v := range want {
			if got[k] != v {
				t.Errorf("phase %v: label %s = %q, want %q", ph, k, got[k], v)
			}
		}
	}
}

// End to end: a CPU profile captured around real queries must contain
// the algorithm and phase label strings — i.e. at least one sample was
// attributed. The profile is gzipped protobuf; label keys and values
// live in its plain-UTF-8 string table, so a byte scan suffices without
// a proto parser.
func TestCPUProfileContainsPhaseLabels(t *testing.T) {
	if testing.Short() {
		t.Skip("captures a real CPU profile")
	}
	obs.SetProfiling(true)
	defer obs.SetProfiling(false)

	db, err := gen.Generate(gen.Config{
		N: 4000, Dims: 3, Values: gen.Anticorrelated, Probs: gen.UniformProb, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := gen.Partition(db, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := Open(ClusterConfig{Partitions: parts, Dims: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	// Burn enough labelled CPU that the 100 Hz sampler cannot miss.
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		if _, err := Run(context.Background(), cluster, Options{Threshold: 0.3, Algorithm: EDSUD}); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()

	zr, err := gzip.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"algorithm", "e-dsud", "phase", "query_id"} {
		if !bytes.Contains(raw, []byte(want)) {
			t.Errorf("profile string table missing %q — no labelled samples", want)
		}
	}
	// At least one of the four phase names must have caught a sample.
	found := false
	for _, p := range Phases() {
		if bytes.Contains(raw, []byte(p.String())) {
			found = true
		}
	}
	if !found {
		t.Error("no phase label value present in the profile")
	}
}
