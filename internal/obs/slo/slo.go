// Package slo evaluates declarative service-level objectives over the
// rotating latency windows of package obs. An Objective compares a live
// measurement (a windowed quantile, an error fraction) against a target
// and reports a burn rate — how fast the error budget is being consumed,
// with 1.0 meaning "exactly at target". A Monitor evaluates a set of
// objectives on a fixed cadence or on demand, exports dsud_slo_* metrics,
// serves /slostatusz, and invokes a breach hook (typically a
// flight-recorder dump) when an objective stays breached for several
// consecutive evaluations — sustained breach, not a single noisy window.
//
// Like the rest of the obs tree the package is dependency-free and
// nil-safe: a nil *Monitor no-ops everywhere, so daemons wire it
// unconditionally.
package slo

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
)

// Status is one objective's most recent evaluation, JSON-stable for
// /slostatusz and /clusterz consumers (curl | jq).
type Status struct {
	// Name identifies the objective ("query-p99", "error-rate", ...).
	Name string `json:"name"`
	// Kind is the objective family: "latency" or "error-rate".
	Kind string `json:"kind"`
	// Current and Target are in the objective's natural unit: seconds for
	// latency objectives, a fraction for error rates.
	Current float64 `json:"current"`
	Target  float64 `json:"target"`
	// Burn is Current/Target — the error-budget burn rate. Values above 1
	// mean the objective is out of budget right now.
	Burn float64 `json:"burn"`
	// Breached reports Burn > 1 on this evaluation; SustainedBreaches
	// counts how many consecutive evaluations it has held.
	Breached          bool `json:"breached"`
	SustainedBreaches int  `json:"sustained_breaches"`
	// Samples is how many observations backed the evaluation (0 means the
	// objective abstained: not enough data to call a breach).
	Samples uint64 `json:"samples"`
}

// Objective is one declarative target evaluated against live telemetry.
type Objective interface {
	// Name must be stable and unique within a Monitor: it keys metrics
	// labels and breach bookkeeping.
	Name() string
	// Evaluate measures the objective now. Implementations must be safe
	// for concurrent use with the instrumented hot paths.
	Evaluate() Status
}

// minSamples is the floor below which objectives abstain rather than
// declare a breach: a p99 — or an error fraction — over a handful of
// requests is noise, and a flight-recorder dump triggered by it would be
// an alert on silence.
const minSamples = 20

// latencyObjective targets a windowed latency quantile.
type latencyObjective struct {
	name     string
	win      interface{ Snapshot() obs.WindowSnapshot }
	quantile float64
	max      time.Duration
}

// Latency declares "the q-th quantile of w stays below max" (e.g.
// Latency("query-p99", w, 0.99, 250*time.Millisecond)). w is a live
// *obs.Window or any other source of window snapshots, such as a site's
// polled window. The objective abstains while the window holds fewer than
// a minimum number of samples.
func Latency(name string, w interface{ Snapshot() obs.WindowSnapshot }, quantile float64, max time.Duration) Objective {
	return &latencyObjective{name: name, win: w, quantile: quantile, max: max}
}

func (o *latencyObjective) Name() string { return o.name }

func (o *latencyObjective) Evaluate() Status {
	st := Status{Name: o.name, Kind: "latency", Target: o.max.Seconds()}
	s := o.win.Snapshot()
	st.Samples = s.Count
	if s.Count < minSamples {
		return st // abstain: too little data to call a breach
	}
	st.Current = s.Quantile(o.quantile).Seconds()
	if o.max > 0 {
		st.Burn = st.Current / o.max.Seconds()
	}
	st.Breached = st.Burn > 1
	return st
}

// errorRateObjective targets a windowed error fraction derived from two
// monotone totals, windowed by deltas between evaluations.
type errorRateObjective struct {
	name          string
	total, errors func() int64
	max           float64

	mu         sync.Mutex
	lastTotal  int64
	lastErrors int64
	primed     bool
}

// ErrorRate declares "errors/total stays below max" over the interval
// between evaluations. total and errors are monotone counters (e.g.
// obs.Counter values); the objective diffs consecutive readings so a
// historical error burst does not poison the rate forever. Intervals
// with fewer than a minimum number of requests abstain without consuming
// the delta, so a short tail window cannot fail a run on noise and a
// slow trickle is still judged once enough samples accumulate. max is a
// fraction (0.01 = 1%).
func ErrorRate(name string, total, errors func() int64, max float64) Objective {
	return &errorRateObjective{name: name, total: total, errors: errors, max: max}
}

func (o *errorRateObjective) Name() string { return o.name }

func (o *errorRateObjective) Evaluate() Status {
	st := Status{Name: o.name, Kind: "error-rate", Target: o.max}
	t, e := o.total(), o.errors()
	o.mu.Lock()
	if !o.primed {
		// First evaluation sees process-lifetime totals, not a window;
		// abstain and measure from here.
		o.lastTotal, o.lastErrors = t, e
		o.primed = true
		o.mu.Unlock()
		return st
	}
	dt, de := t-o.lastTotal, e-o.lastErrors
	if dt < minSamples {
		// Too few requests since the last judged window to call a
		// breach: one failure among a handful of requests reads as a
		// huge rate. Leave the window open (don't consume the delta) so
		// a slow trickle is still judged once enough samples accumulate.
		o.mu.Unlock()
		if dt > 0 {
			st.Samples = uint64(dt)
		}
		return st
	}
	o.lastTotal, o.lastErrors = t, e
	o.mu.Unlock()
	st.Samples = uint64(dt)
	st.Current = float64(de) / float64(dt)
	if o.max > 0 {
		st.Burn = st.Current / o.max
	} else {
		// A zero budget means any error is a breach.
		if de > 0 {
			st.Burn = 2
		}
	}
	st.Breached = st.Burn > 1
	return st
}

// DefSustain is how many consecutive breached evaluations constitute a
// sustained breach (and fire the breach hook). With the default
// evaluation cadence this is tens of seconds of continuous violation —
// long enough to skip one noisy window.
const DefSustain = 3

// Monitor evaluates a fixed set of objectives on demand or on a cadence.
type Monitor struct {
	objectives []Objective

	mu     sync.Mutex
	streak map[string]int
	last   []Status
	lastAt time.Time
	onHook func(name string)

	// evalOnce guards Handler's lazy first evaluation: evaluating moves
	// objective state (delta windows, breach streaks), so concurrent
	// first scrapes must not each run Evaluate and skew the cadenced
	// Run()'s bookkeeping.
	evalOnce sync.Once

	breachTotal map[string]*obs.Counter
}

// New returns a monitor over the given objectives. Objectives with nil
// receivers inside (e.g. a Latency over a nil window) are legal: they
// abstain. A monitor with no objectives is legal and reports nothing.
func New(objectives ...Objective) *Monitor {
	return &Monitor{
		objectives:  objectives,
		streak:      make(map[string]int),
		breachTotal: make(map[string]*obs.Counter),
	}
}

// OnSustainedBreach registers fn to run (in the evaluating goroutine)
// each time an objective crosses the sustain threshold — once per
// streak, not once per evaluation. Daemons wire this to a flight-recorder
// Dump so a sustained breach leaves evidence on disk. Nil-safe.
func (m *Monitor) OnSustainedBreach(fn func(name string)) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.onHook = fn
	m.mu.Unlock()
}

// Instrument registers the monitor's metrics on reg:
//
//	dsud_slo_burn_rate{slo}      latest burn rate per objective
//	dsud_slo_breached{slo}       1 while the latest evaluation breached
//	dsud_slo_breaches_total{slo} sustained breaches since start
//
// Nil-safe on both sides.
func (m *Monitor) Instrument(reg *obs.Registry) {
	if m == nil || reg == nil {
		return
	}
	reg.Describe(
		"dsud_slo_burn_rate", "Latest error-budget burn rate per objective (1 = at target).",
		"dsud_slo_breached", "Whether the objective's latest evaluation breached (0/1).",
		"dsud_slo_breaches_total", "Sustained SLO breaches since process start.",
	)
	for _, o := range m.objectives {
		name := o.Name()
		reg.GaugeFunc("dsud_slo_burn_rate", func() float64 {
			return m.status(name).Burn
		}, "slo", name)
		reg.GaugeFunc("dsud_slo_breached", func() float64 {
			if m.status(name).Breached {
				return 1
			}
			return 0
		}, "slo", name)
		m.mu.Lock()
		m.breachTotal[name] = reg.Counter("dsud_slo_breaches_total", "slo", name)
		m.mu.Unlock()
	}
}

// status returns the cached Status for one objective (zero value when it
// has not been evaluated yet).
func (m *Monitor) status(name string) Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, st := range m.last {
		if st.Name == name {
			return st
		}
	}
	return Status{Name: name}
}

// Evaluate runs every objective once, updates breach streaks, fires the
// sustained-breach hook for objectives that just crossed the threshold,
// and returns the statuses in declaration order. Nil-safe (returns nil).
func (m *Monitor) Evaluate() []Status {
	if m == nil {
		return nil
	}
	out := make([]Status, 0, len(m.objectives))
	var fired []string
	m.mu.Lock()
	hook := m.onHook
	m.mu.Unlock()
	for _, o := range m.objectives {
		st := o.Evaluate()
		m.mu.Lock()
		if st.Breached {
			m.streak[st.Name]++
			if m.streak[st.Name] == DefSustain {
				fired = append(fired, st.Name)
				if c := m.breachTotal[st.Name]; c != nil {
					c.Inc()
				}
			}
		} else {
			m.streak[st.Name] = 0
		}
		st.SustainedBreaches = m.streak[st.Name]
		m.mu.Unlock()
		out = append(out, st)
	}
	m.mu.Lock()
	m.last = out
	m.lastAt = time.Now()
	m.mu.Unlock()
	if hook != nil {
		for _, name := range fired {
			hook(name)
		}
	}
	return out
}

// Run evaluates on a ticker until ctx is cancelled (interval <= 0
// selects 10s). Nil-safe (returns immediately).
func (m *Monitor) Run(ctx context.Context, interval time.Duration) {
	if m == nil {
		return
	}
	if interval <= 0 {
		interval = 10 * time.Second
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			m.Evaluate()
		}
	}
}

// statusPage is the /slostatusz document.
type statusPage struct {
	EvaluatedUnixNano int64    `json:"evaluated_unix_nano,omitempty"`
	Objectives        []Status `json:"objectives"`
}

// Handler serves the latest evaluation as JSON (mount at /slostatusz).
// If the monitor has never been evaluated it evaluates inline — at most
// once for the monitor's lifetime, so racing first scrapes cannot
// repeatedly advance objective state — and the page is never empty on a
// freshly started daemon. GET/HEAD only.
func (m *Monitor) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		var page statusPage
		if m != nil {
			m.mu.Lock()
			last, at := m.last, m.lastAt
			m.mu.Unlock()
			if last == nil {
				m.evalOnce.Do(func() { m.Evaluate() })
				// Either this Do evaluated, a concurrent one did (Do
				// blocks until it finishes), or the cadenced Run() got
				// there first; in all cases the cache is populated.
				m.mu.Lock()
				last, at = m.last, m.lastAt
				m.mu.Unlock()
			}
			page.Objectives = last
			if !at.IsZero() {
				page.EvaluatedUnixNano = at.UnixNano()
			}
		}
		if page.Objectives == nil {
			page.Objectives = []Status{}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(page)
	})
}

// WriteText renders the latest statuses as an aligned operator table —
// the SLO table at the end of dsud-loadgen's summary.
func WriteText(w interface{ Write([]byte) (int, error) }, statuses []Status) {
	fmt.Fprintf(w, "%-18s %-10s %10s %10s %8s  %s\n", "SLO", "KIND", "CURRENT", "TARGET", "BURN", "STATE")
	for _, st := range statuses {
		state := "ok"
		switch {
		case st.Samples == 0:
			state = "no-data"
		case st.Breached:
			state = fmt.Sprintf("BREACH x%d", st.SustainedBreaches)
		}
		fmt.Fprintf(w, "%-18s %-10s %10.4g %10.4g %8.2f  %s\n",
			st.Name, st.Kind, st.Current, st.Target, st.Burn, state)
	}
}
