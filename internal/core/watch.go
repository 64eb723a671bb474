package core

// The cluster watch: a Health sweep once per interval, keeping a short
// ring of each site's polls, served as /clusterz (JSON and text) and as
// Prometheus federation gauges. A site is stale when its latest poll
// failed. The coordinator starts every exchange, exactly as a query does,
// so the watch covers in-process and TCP sites alike. The sites only
// report their latency windows; the watch judges the latency objectives
// over them.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/obs/slo"
)

// watchRetention is how many answered polls each site's ring keeps: two
// minutes of history at one poll a second.
const watchRetention = 120

// ClusterWatch is a running watch. Obtain one from Cluster.Watch.
type ClusterWatch struct {
	cluster  *Cluster
	interval time.Duration
	stop     context.CancelFunc
	done     chan struct{}
	mon      *slo.Monitor // nil without objectives

	mu    sync.Mutex
	sites []watchedSite
	slo   []slo.Status // mon's evaluation at the end of the latest sweep
}

// watchedSite is what the watch retains of one site.
type watchedSite struct {
	latest  *msg.SiteStatus // newest answer; nil until the first
	lastOK  int64           // UnixNano of that answer
	err     error           // the latest poll's error; nil when it answered
	polls   uint64          // answered polls
	history []WatchPoint    // the newest watchRetention answers, oldest first
}

// stale reports a site whose latest poll failed (or that was never polled).
func (s *watchedSite) stale() bool { return s.latest == nil || s.err != nil }

// WatchPoint is one answered poll of a site, reduced to the series
// /clusterz plots.
type WatchPoint struct {
	UnixNano int64   `json:"unix_nano"`
	Rate     float64 `json:"rate"`
	P50Ms    float64 `json:"p50_ms"`
	P95Ms    float64 `json:"p95_ms"`
	P99Ms    float64 `json:"p99_ms"`
	Tuples   int     `json:"tuples"`
}

// Watch polls every site's status once per interval (interval <= 0
// selects one second) until ctx is cancelled or Stop is called. Each sweep
// is a Health call bounded by one interval, so a site that never answers
// goes stale without holding up the others. The first sweep completes
// before Watch returns. Poll failures and recoveries are logged through
// ClusterConfig.Logger. Watching a cluster twice is harmless: each watch
// only reads.
//
// p99 > 0 sets the latency objectives the watch judges at the end of
// every sweep: site<i>_request_p99 over each site's latest polled window
// and cluster_request_p99 over their merge. A stale site's objective
// abstains. A breach held for slo.DefSustain consecutive sweeps is logged
// at Warn. p99 == 0 sets none.
func (c *Cluster) Watch(ctx context.Context, interval, p99 time.Duration) *ClusterWatch {
	if interval <= 0 {
		interval = time.Second
	}
	ctx, stop := context.WithCancel(ctx)
	w := &ClusterWatch{cluster: c, interval: interval, stop: stop,
		done: make(chan struct{}), sites: make([]watchedSite, len(c.clients))}
	if p99 > 0 {
		// The windows are read by the monitor's evaluation, which only
		// sweep runs.
		objectives := make([]slo.Objective, 0, len(w.sites)+1)
		for i := range w.sites {
			objectives = append(objectives, slo.Latency(fmt.Sprintf("site%d_request_p99", i),
				windowFunc(func() obs.WindowSnapshot { return w.window(i) }), 0.99, p99))
		}
		w.mon = slo.New(append(objectives, slo.Latency("cluster_request_p99", windowFunc(w.merged), 0.99, p99))...)
	}
	w.sweep(ctx)
	go w.run(ctx)
	return w
}

// Stop ends the watch and waits for its loop to exit. Idempotent.
func (w *ClusterWatch) Stop() {
	w.stop()
	<-w.done
}

func (w *ClusterWatch) run(ctx context.Context) {
	defer close(w.done)
	tick := time.NewTicker(w.interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			w.sweep(ctx)
		}
	}
}

// sweep polls every site once and records the outcome. A sweep cut short
// by Stop records nothing: the sites did not fail, the watch ended.
func (w *ClusterWatch) sweep(ctx context.Context) {
	pollCtx, cancel := context.WithTimeout(ctx, w.interval)
	healths := w.cluster.Health(pollCtx)
	cancel()
	if ctx.Err() != nil {
		return
	}
	// Only sweep writes w.sites, so it may read them unlocked; the logger
	// is the caller's code and runs outside the lock.
	if log := w.cluster.logger; log != nil {
		for i, h := range healths {
			switch prev := w.sites[i].err; {
			case h.Err != nil && prev == nil:
				log.Warn("site poll failed", "site", i, "err", h.Err)
			case h.Err == nil && prev != nil:
				log.Info("site poll recovered", "site", i)
			}
		}
	}
	now := time.Now().UnixNano()
	w.mu.Lock()
	for i, h := range healths {
		s := &w.sites[i]
		if s.err = h.Err; h.Err != nil {
			continue
		}
		st := h.Status
		s.latest, s.lastOK = st, now
		s.polls++
		if len(s.history) == watchRetention {
			s.history = append(s.history[:0], s.history[1:]...)
		}
		s.history = append(s.history, WatchPoint{UnixNano: now, Rate: st.WindowRate,
			P50Ms: st.LatencyP50Ms, P95Ms: st.LatencyP95Ms, P99Ms: st.LatencyP99Ms, Tuples: st.Tuples})
	}
	// Judged in the same critical section, so no reader sees a sweep's
	// sites beside the previous sweep's verdicts. The breach is logged
	// here rather than by the monitor's hook, which would run under w.mu.
	verdicts := w.mon.Evaluate()
	w.slo = verdicts
	w.mu.Unlock()
	if log := w.cluster.logger; log != nil {
		for _, st := range verdicts {
			if st.SustainedBreaches == slo.DefSustain {
				log.Warn("slo sustained breach", "slo", st.Name, "current", st.Current, "target", st.Target)
			}
		}
	}
}

// windowFunc adapts a function to the window source slo.Latency reads.
type windowFunc func() obs.WindowSnapshot

func (f windowFunc) Snapshot() obs.WindowSnapshot { return f() }

// window is site i's latest polled latency window, empty while the site
// is stale: its objective abstains rather than judge its last answer.
// Callers hold w.mu or are sweep, the only writer of w.sites.
func (w *ClusterWatch) window(i int) obs.WindowSnapshot {
	if s := &w.sites[i]; !s.stale() {
		return siteWindow(s.latest)
	}
	return obs.WindowSnapshot{}
}

// merged is the fresh sites' windows merged bucket by bucket. Callers hold
// w.mu or are sweep.
func (w *ClusterWatch) merged() obs.WindowSnapshot {
	var win obs.WindowSnapshot
	for i := range w.sites {
		win.Merge(w.window(i))
	}
	return win
}

// Clusterz is the cluster document served at /clusterz: every site's
// latest status and freshness, the cluster-wide latency quantiles merged
// bucket by bucket over the fresh sites' windows, the watch's latest SLO
// verdicts, and optionally each site's recent history.
type Clusterz struct {
	UnixNano   int64          `json:"unix_nano"`
	IntervalNS int64          `json:"interval_ns"`
	Sites      int            `json:"sites"`
	Fresh      int            `json:"fresh"`
	Stale      int            `json:"stale"`
	Rate       float64        `json:"rate"`
	P50Ms      float64        `json:"p50_ms"`
	P95Ms      float64        `json:"p95_ms"`
	P99Ms      float64        `json:"p99_ms"`
	PerSite    []ClusterzSite `json:"per_site"`
	// SLO is the watch's evaluation at the end of its latest sweep, one
	// entry per objective; empty when the watch judges none.
	SLO []slo.Status `json:"slo,omitempty"`
}

// ClusterzSite is one site's entry in the Clusterz document.
type ClusterzSite struct {
	Site int `json:"site"`
	// Stale marks a site whose latest poll failed; Err says why.
	Stale bool   `json:"stale"`
	Err   string `json:"err,omitempty"`
	// LastPollUnixNano stamps the newest answered poll (0 = never) and
	// AgeSeconds is the time since it; Polls counts answered polls.
	LastPollUnixNano int64   `json:"last_poll_unix_nano"`
	AgeSeconds       float64 `json:"age_seconds"`
	Polls            uint64  `json:"polls"`
	// Latest is the newest answered status, verbatim (nil = never).
	Latest *msg.SiteStatus `json:"latest,omitempty"`
	// History holds the site's retained polls, oldest first; omitted
	// when the reader asked for ?history=0.
	History []WatchPoint `json:"history,omitempty"`
}

// Snapshot assembles the Clusterz document.
func (w *ClusterWatch) Snapshot(withHistory bool) Clusterz {
	now := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	doc := Clusterz{UnixNano: now.UnixNano(), IntervalNS: int64(w.interval), Sites: len(w.sites),
		PerSite: make([]ClusterzSite, len(w.sites)), SLO: w.slo}
	for i := range w.sites {
		s := &w.sites[i]
		e := ClusterzSite{Site: i, Stale: s.stale(),
			LastPollUnixNano: s.lastOK, Polls: s.polls, Latest: s.latest}
		if s.err != nil {
			e.Err = s.err.Error()
		}
		if s.lastOK != 0 {
			e.AgeSeconds = now.Sub(time.Unix(0, s.lastOK)).Seconds()
		}
		if withHistory {
			e.History = append([]WatchPoint(nil), s.history...)
		}
		if e.Stale {
			doc.Stale++
		} else {
			doc.Fresh++
			doc.Rate += s.latest.WindowRate
		}
		doc.PerSite[i] = e
	}
	merged := w.merged()
	doc.P50Ms, doc.P95Ms, doc.P99Ms = quantileMs(merged, 0.50), quantileMs(merged, 0.95), quantileMs(merged, 0.99)
	return doc
}

// siteWindow rebuilds a site's latency window from its status.
func siteWindow(st *msg.SiteStatus) obs.WindowSnapshot {
	win := obs.WindowSnapshot{Counts: st.WindowCounts, Span: time.Duration(st.WindowSeconds * float64(time.Second))}
	for _, b := range st.WindowBoundsNS {
		win.Bounds = append(win.Bounds, time.Duration(b))
	}
	for _, c := range st.WindowCounts {
		win.Count += c
	}
	return win
}

func quantileMs(win obs.WindowSnapshot, q float64) float64 {
	return float64(win.Quantile(q)) / float64(time.Millisecond)
}

// Handler serves the Clusterz document: JSON by default, the WriteText
// table with ?format=text, history omitted with ?history=0. GET/HEAD only.
func (w *ClusterWatch) Handler() http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			rw.Header().Set("Allow", "GET, HEAD")
			http.Error(rw, "GET only", http.StatusMethodNotAllowed)
			return
		}
		if r.URL.Query().Get("format") == "text" {
			rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
			w.WriteText(rw)
			return
		}
		rw.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(rw)
		enc.SetIndent("", "  ")
		if err := enc.Encode(w.Snapshot(r.URL.Query().Get("history") != "0")); err != nil {
			http.Error(rw, err.Error(), http.StatusInternalServerError)
		}
	})
}

// WriteText renders the Clusterz document as the table behind
// /clusterz?format=text and dsud-query -cluster-status, with one line per
// breached objective under it. Each answering site's row ends with a
// sparkline of the p99 over its newest sparkWidth polls.
func (w *ClusterWatch) WriteText(out io.Writer) {
	doc := w.Snapshot(true)
	fmt.Fprintf(out, "%-5s %-7s %8s %8s %9s %8s %8s %8s %9s %7s %6s %9s %4s %8s %9s %8s %10s %-11s %s\n",
		"SITE", "STATE", "AGE", "POLLS", "RATE", "P50MS", "P95MS", "P99MS", "INFLIGHT", "WORKERS", "QUEUED",
		"TUPLES", "TREE", "SESSIONS", "REPLICA", "UPTIME", "REQUESTS", "LAST-UPDATE", "P99-HISTORY")
	for _, s := range doc.PerSite {
		state := "FRESH"
		if s.Stale {
			state = "STALE"
		}
		if s.Err != "" || s.Latest == nil {
			fmt.Fprintf(out, "%-5d %-7s %s\n", s.Site, state, s.Err)
			continue
		}
		st := s.Latest
		// An in-process site has no worker pool: "-", not a misleading 0/0.
		workers := "-"
		if st.MuxWorkerLimit > 0 {
			workers = fmt.Sprintf("%d/%d", st.MuxWorkersBusy, st.MuxWorkerLimit)
		}
		lastUpdate := "never"
		if st.LastUpdateUnixNano != 0 {
			lastUpdate = time.Duration(doc.UnixNano-st.LastUpdateUnixNano).Round(time.Second).String() + " ago"
		}
		fmt.Fprintf(out, "%-5d %-7s %7.1fs %8d %9.1f %8.2f %8.2f %8.2f %9d %7s %6d %9d %4d %8d %4d@v%-3d %8s %10d %-11s %s\n",
			s.Site, state, s.AgeSeconds, s.Polls, st.WindowRate, st.LatencyP50Ms, st.LatencyP95Ms, st.LatencyP99Ms,
			st.InFlight, workers, st.MuxQueued, st.Tuples, st.TreeHeight, st.Sessions,
			st.ReplicaSize, st.ReplicaVersion, time.Duration(st.UptimeSeconds*float64(time.Second)).Round(time.Second),
			st.RequestsTotal, lastUpdate, spark(s.History))
	}
	fmt.Fprintf(out, "%d/%d sites fresh; cluster rate %.1f/s p50 %.2fms p95 %.2fms p99 %.2fms\n",
		doc.Fresh, doc.Sites, doc.Rate, doc.P50Ms, doc.P95Ms, doc.P99Ms)
	for _, o := range doc.SLO {
		if o.Breached {
			fmt.Fprintf(out, "slo %s BREACHED x%d: current %.4g target %.4g burn %.2f\n",
				o.Name, o.SustainedBreaches, o.Current, o.Target, o.Burn)
		}
	}
}

// sparkWidth is how many of a site's newest polls its P99-HISTORY
// sparkline shows.
const sparkWidth = 32

var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// spark renders the p99 of a site's newest sparkWidth polls, one rune per
// poll, scaled to their own maximum (a flat zero history is a floor line).
func spark(pts []WatchPoint) string {
	if len(pts) > sparkWidth {
		pts = pts[len(pts)-sparkWidth:]
	}
	max := 0.0
	for _, p := range pts {
		max = math.Max(max, p.P99Ms)
	}
	var b strings.Builder
	for _, p := range pts {
		i := 0
		if max > 0 {
			i = int(p.P99Ms / max * float64(len(sparkLevels)-1))
		}
		b.WriteRune(sparkLevels[i])
	}
	return b.String()
}

// watchGauges are the per-site federation gauges, read from each site's
// latest answered status.
var watchGauges = []struct {
	name, help string
	value      func(*msg.SiteStatus) float64
}{
	{"rate", "windowed request rate", func(s *msg.SiteStatus) float64 { return s.WindowRate }},
	{"p50_ms", "windowed latency p50 (ms)", func(s *msg.SiteStatus) float64 { return s.LatencyP50Ms }},
	{"p95_ms", "windowed latency p95 (ms)", func(s *msg.SiteStatus) float64 { return s.LatencyP95Ms }},
	{"p99_ms", "windowed latency p99 (ms)", func(s *msg.SiteStatus) float64 { return s.LatencyP99Ms }},
	{"in_flight", "in-flight requests", func(s *msg.SiteStatus) float64 { return float64(s.InFlight) }},
	{"mux_busy", "busy mux workers", func(s *msg.SiteStatus) float64 { return float64(s.MuxWorkersBusy) }},
	{"mux_queued", "queued mux requests", func(s *msg.SiteStatus) float64 { return float64(s.MuxQueued) }},
	{"tuples", "indexed tuples", func(s *msg.SiteStatus) float64 { return float64(s.Tuples) }},
	{"sessions", "live sessions", func(s *msg.SiteStatus) float64 { return float64(s.Sessions) }},
}

// Expose registers the federation view on reg: per site, an up mark, the
// age of its newest answered poll and every watchGauges series, plus the
// merged cluster quantiles and the watch's dsud_slo_* series — the whole
// cluster on the coordinator's own /metrics. Call once, before the
// registry serves. Nil-safe.
func (w *ClusterWatch) Expose(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Describe(
		"dsud_cluster_site_up", "1 when the site answered its latest status poll, 0 when stale.",
		"dsud_cluster_last_poll_age_seconds", "Seconds since the site last answered a status poll.",
		"dsud_cluster_merged_p50_ms", "Cluster-wide merged latency p50 (ms).",
		"dsud_cluster_merged_p95_ms", "Cluster-wide merged latency p95 (ms).",
		"dsud_cluster_merged_p99_ms", "Cluster-wide merged latency p99 (ms).",
	)
	for _, g := range watchGauges {
		reg.Describe("dsud_cluster_"+g.name, "Per-site "+g.help+", polled.")
	}
	site := func(i int) ClusterzSite {
		w.mu.Lock()
		defer w.mu.Unlock()
		s := &w.sites[i]
		return ClusterzSite{Stale: s.stale(), LastPollUnixNano: s.lastOK, Latest: s.latest}
	}
	for i := range w.sites {
		label := strconv.Itoa(i)
		reg.GaugeFunc("dsud_cluster_site_up", func() float64 {
			if site(i).Stale {
				return 0
			}
			return 1
		}, "site", label)
		reg.GaugeFunc("dsud_cluster_last_poll_age_seconds", func() float64 {
			if last := site(i).LastPollUnixNano; last != 0 {
				return time.Since(time.Unix(0, last)).Seconds()
			}
			return 0
		}, "site", label)
		for _, g := range watchGauges {
			reg.GaugeFunc("dsud_cluster_"+g.name, func() float64 {
				if st := site(i).Latest; st != nil {
					return g.value(st)
				}
				return 0
			}, "site", label)
		}
	}
	reg.GaugeFunc("dsud_cluster_merged_p50_ms", func() float64 { return w.Snapshot(false).P50Ms })
	reg.GaugeFunc("dsud_cluster_merged_p95_ms", func() float64 { return w.Snapshot(false).P95Ms })
	reg.GaugeFunc("dsud_cluster_merged_p99_ms", func() float64 { return w.Snapshot(false).P99Ms })
	w.mon.Instrument(reg)
}
