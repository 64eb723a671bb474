package site

import (
	"repro/internal/msg"
	"repro/internal/obs"
)

// Instrument registers the engine's operational metrics with reg and
// starts measuring request handling. Gauges read live engine state at
// scrape time; the per-kind counters and handle-latency histograms are
// pre-registered so even an idle daemon exposes the full series set.
// Call once, before serving traffic. A nil registry is a no-op, and an
// uninstrumented engine pays nothing on the request path.
func (e *Engine) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Describe(
		"dsud_site_tuples", "Tuples currently stored in the site's partition.",
		"dsud_site_sessions", "Live query sessions at the site.",
		"dsud_site_replica_size", "Tuples in the site's SKY(H) replica (0 when replication is off).",
		"dsud_site_local_skyline_unshipped", "Local skyline tuples not yet shipped, summed over live sessions.",
		"dsud_site_requests_total", "Requests executed by the site, by kind (replays served from the dedup cache not included).",
		"dsud_site_replays_total", "Retried requests answered from the dedup cache without re-execution.",
		"dsud_site_handle_seconds", "Request execution time at the site, by kind.",
		"dsud_site_pruned_total", "Local skyline tuples discarded by Observation-2 feedback pruning.",
		"dsud_site_sky_index_builds_total", "Cold local-skyline searches: a subspace's first Init or Candidates, or one below its index's floor.",
		"dsud_site_sky_index_members", "Tuples held by the maintained local-skyline indexes, summed over subspaces.",
	)
	reg.GaugeFunc("dsud_site_tuples", func() float64 { return float64(e.Len()) })
	reg.GaugeFunc("dsud_site_sessions", func() float64 { return float64(e.Sessions()) })
	reg.GaugeFunc("dsud_site_replica_size", func() float64 {
		e.mu.Lock()
		defer e.mu.Unlock()
		return float64(len(e.replica))
	})
	reg.GaugeFunc("dsud_site_local_skyline_unshipped", func() float64 {
		e.mu.Lock()
		defer e.mu.Unlock()
		sum := 0
		for _, s := range e.sessions {
			sum += len(s.sky)
		}
		return float64(sum)
	})
	reg.GaugeFunc("dsud_site_sky_index_members", func() float64 {
		e.mu.Lock()
		defer e.mu.Unlock()
		sum := 0
		for _, ix := range e.sky {
			sum += len(ix.members)
		}
		return float64(sum)
	})

	e.mu.Lock()
	defer e.mu.Unlock()
	for k := 1; k <= msg.MaxKind; k++ {
		kind := msg.Kind(k).String()
		e.obsReqs[k] = reg.Counter("dsud_site_requests_total", "kind", kind)
		e.obsLat[k] = reg.Histogram("dsud_site_handle_seconds", nil, "kind", kind)
	}
	e.obsReplays = reg.Counter("dsud_site_replays_total")
	e.obsPruned = reg.Counter("dsud_site_pruned_total")
	e.obsSkyBuilds = reg.Counter("dsud_site_sky_index_builds_total")
	e.obsOn = true
}
