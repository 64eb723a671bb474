package core

// Instrumentation for the §5.4 incremental update path: counters for
// applied updates, answer-member re-scorings and membership changes, a
// rotating latency window, and pprof op labels so profile samples
// attribute to insert vs delete maintenance.

import (
	"context"
	"runtime/pprof"
	"time"

	"repro/internal/obs"
	"repro/internal/round"
)

const (
	opInsert = iota
	opDelete
	numOps
)

var opNames = [numOps]string{"insert", "delete"}

// maintInstr carries a Maintainer's optional instrumentation. A nil
// *maintInstr (the default) costs each update one pointer test — the
// same discipline as profLabels.
type maintInstr struct {
	applied  [numOps]*obs.Counter
	errors   [numOps]*obs.Counter
	rescored *obs.Counter
	affected *obs.Counter
	window   *obs.Window

	// labels are pre-built pprof-labelled contexts per op, applied only
	// while obs.Profiling() is on.
	labels [numOps]context.Context
}

// instrLazy returns the maintainer's instrumentation, creating it on
// first use (so Instrument and SetLatencyWindow compose in any order).
func (m *Maintainer) instrLazy() *maintInstr {
	if m.instr == nil {
		m.instr = &maintInstr{}
		for op := range numOps {
			m.instr.labels[op] = pprof.WithLabels(context.Background(), pprof.Labels("op", "maintain-"+opNames[op]))
		}
	}
	return m.instr
}

// Instrument registers the update-path counters on reg:
//
//	dsud_update_applied_total{op}   updates applied successfully
//	dsud_update_errors_total{op}    updates that failed
//	dsud_update_rescored_total      answer members whose probability was rescaled
//	dsud_update_affected_total      answer membership changes (admissions + evictions)
//
// Nil-safe; call before applying updates.
func (m *Maintainer) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	in := m.instrLazy()
	for op := 0; op < numOps; op++ {
		in.applied[op] = reg.Counter("dsud_update_applied_total", "op", opNames[op])
		in.errors[op] = reg.Counter("dsud_update_errors_total", "op", opNames[op])
	}
	in.rescored = reg.Counter("dsud_update_rescored_total")
	in.affected = reg.Counter("dsud_update_affected_total")
}

// SetLatencyWindow attaches a rotating latency window observed once per
// Insert/Delete (expose it with obs.ExposeWindow, e.g. as
// dsud_update_latency_seconds).
func (m *Maintainer) SetLatencyWindow(w *obs.Window) {
	m.instrLazy().window = w
}

func noopFin(*error) {}

// begin opens one update span: pprof op labels while profiling, and a
// closure that settles the applied/errors counters and the latency
// window from the update's result once it finishes (defer it).
func (in *maintInstr) begin(op int) func(*error) {
	if in == nil {
		return noopFin
	}
	if obs.Profiling() {
		pprof.SetGoroutineLabels(in.labels[op])
	}
	start := time.Now()
	return func(err *error) {
		if in.window != nil {
			in.window.Observe(time.Since(start))
		}
		if *err != nil {
			in.errors[op].Add(1)
		} else {
			in.applied[op].Add(1)
		}
		if obs.Profiling() {
			pprof.SetGoroutineLabels(context.Background())
		}
	}
}

// count tallies an applied update's rescored members (its eq. 5 factor
// adjustments) and its membership changes (admissions and evictions).
func (in *maintInstr) count(upd round.Update) {
	if in == nil {
		return
	}
	in.rescored.Add(int64(upd.Rescored))
	in.affected.Add(int64(upd.Changed))
}
