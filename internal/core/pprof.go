package core

import (
	"context"
	"runtime/pprof"
	"strconv"

	"repro/internal/obs"
	"repro/internal/round"
)

// profLabels attributes CPU/heap/mutex profile samples to the query's
// algorithm, protocol phase and query_id via runtime/pprof goroutine
// labels. It subscribes to the step stream: the labelled contexts are
// pre-built once per query, so a phase boundary inside the hot loop is a
// single SetGoroutineLabels call. A fan-out's work is attributed to the
// phase that issued it: in-process sites answer on the labelled
// goroutine itself, and the goroutine transport.Send starts for any
// other non-Sender client inherits its labels.
//
// A nil *profLabels (profiling disabled, the production default) makes
// every method a no-op, guarded by TestProfLabelsZeroAllocWhenDisabled.
type profLabels struct {
	phase [numPhases]context.Context
	base  context.Context
	open  []Phase // phases begun and not yet ended, innermost last
}

// newProfLabels returns nil unless obs.SetProfiling(true) was called.
// qid is the query's session ID, the same identifier the sites see.
func newProfLabels(ctx context.Context, algo Algorithm, qid uint64) *profLabels {
	if !obs.Profiling() {
		return nil
	}
	p := &profLabels{base: ctx}
	id := strconv.FormatUint(qid, 10)
	for ph := Phase(0); ph < numPhases; ph++ {
		p.phase[ph] = pprof.WithLabels(ctx, pprof.Labels(
			"algorithm", algo.String(),
			"phase", ph.String(),
			"query_id", id,
		))
	}
	return p
}

// step tags the calling goroutine with the innermost open phase's labels.
// Between phases the last one's labels stay on.
func (p *profLabels) step(s round.Step) {
	if p == nil {
		return
	}
	switch s.Kind {
	case round.StepBegin:
		p.open = append(p.open, s.Phase)
	case round.StepEnd:
		p.open = p.open[:len(p.open)-1]
	default:
		return
	}
	if n := len(p.open); n > 0 {
		pprof.SetGoroutineLabels(p.phase[p.open[n-1]])
	}
}

// exit restores the goroutine's pre-query labels.
func (p *profLabels) exit() {
	if p == nil {
		return
	}
	pprof.SetGoroutineLabels(p.base)
}
