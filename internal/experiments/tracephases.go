package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
)

// PhaseTable is the per-phase timing record of one traced query run,
// produced by TracePhases and rendered by cmd/dsud-bench -trace-out.
type PhaseTable struct {
	// ID names the run: experiment, workload case and algorithm.
	ID string
	// Summary is the query's trace snapshot (phase spans, event tallies).
	Summary core.TraceSummary
	// ttf is the query's time to first result, from its report's curve.
	ttf time.Duration
}

// Render writes the table with its heading.
func (t PhaseTable) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s ==\n", t.ID); err != nil {
		return err
	}
	if err := t.Summary.WriteTable(w, t.ttf); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}

// TracePhases re-runs the progressiveness cases of one figure (fig12 or
// fig13) with a per-query Trace attached and returns the phase-timing
// tables for DSUD and e-DSUD — where each algorithm's wall time actually
// goes, complementing the figure's cumulative curves.
func TracePhases(ctx context.Context, id string, scale Scale) ([]PhaseTable, error) {
	cases := progressCases(id)
	if cases == nil {
		return nil, fmt.Errorf("experiments: %q has no phase tracing (only fig12/fig13)", id)
	}
	var out []PhaseTable
	for _, pc := range cases {
		d := DefaultDims
		if pc.values == gen.NYSE {
			d = 2
		}
		cfg := config{
			n: scale.N, d: d, m: scale.sites(), q: DefaultThreshold,
			values: pc.values, probs: pc.probs, mu: pc.mu, sigma: pc.sigma,
			seed: scale.Seed,
		}
		for _, algo := range []core.Algorithm{core.DSUD, core.EDSUD} {
			tr := core.NewTrace()
			rep, err := runOnceTraced(ctx, cfg, algo, tr)
			if err != nil {
				return nil, err
			}
			out = append(out, PhaseTable{
				ID:      fmt.Sprintf("%s-%s-%s", id, pc.label, algo),
				Summary: tr.Summary(),
				ttf:     time.Duration(rep.Curve.TTFirstNS),
			})
		}
	}
	return out, nil
}

// runOnceTraced is runOnce with a trace attached to the query.
func runOnceTraced(ctx context.Context, cfg config, algo core.Algorithm, tr *core.Trace) (*core.Report, error) {
	dims := cfg.d
	if cfg.values == gen.NYSE {
		dims = 2
	}
	db, err := gen.Generate(gen.Config{
		N: cfg.n, Dims: dims, Values: cfg.values,
		Probs: cfg.probs, Mu: cfg.mu, Sigma: cfg.sigma, Seed: cfg.seed,
	})
	if err != nil {
		return nil, err
	}
	parts, err := gen.Partition(db, cfg.m, cfg.seed+1)
	if err != nil {
		return nil, err
	}
	cluster, err := core.Open(core.ClusterConfig{Partitions: parts, Dims: dims})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	return core.Run(ctx, cluster, core.Options{
		Threshold: cfg.q,
		Dims:      cfg.subspace,
		Algorithm: algo,
		Trace:     tr,
	})
}
