package core

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/transport"
	"repro/internal/uncertain"
)

// SiteHealth is one site's health-probe outcome: either a status
// snapshot or the error that prevented one. A site running a build that
// predates KindStatus answers with an unknown-kind error, which shows up
// here as Err — degraded visibility, not a cluster failure.
type SiteHealth struct {
	Site   int
	Status *transport.SiteStatus
	Err    error

	// TelemetryStale marks a site whose pushed telemetry went silent for
	// longer than the plane's staleness cutoff (> StaleAfter push
	// intervals) — degraded, even when the direct probe above still
	// answers. Always false when the cluster runs no telemetry plane or
	// the site is outside it. TelemetryAgeSeconds is the time
	// since the site's last push (0 when it never pushed).
	TelemetryStale      bool
	TelemetryAgeSeconds float64
}

// Healthy reports whether the probe got a status back.
func (h SiteHealth) Healthy() bool { return h.Err == nil && h.Status != nil }

// Degraded reports a site that answers probes but whose telemetry push
// stream went stale — reachable, yet not behaving.
func (h SiteHealth) Degraded() bool { return h.Healthy() && h.TelemetryStale }

// Health probes every site with KindStatus in parallel and returns one
// entry per site, in site order. Unlike query broadcasts, one dead site
// does not fail the sweep — its entry carries the error and the rest
// report normally.
func (c *Cluster) Health(ctx context.Context) []SiteHealth {
	out := make([]SiteHealth, len(c.clients))
	var wg sync.WaitGroup
	for i := range c.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i].Site = i
			resp, err := c.clients[i].Call(ctx, &transport.Request{Kind: transport.KindStatus})
			if err != nil {
				out[i].Err = err
				return
			}
			if resp.Status == nil {
				out[i].Err = fmt.Errorf("core: site %d returned no status (pre-health build?)", i)
				return
			}
			out[i].Status = resp.Status
		}(i)
	}
	wg.Wait()
	if t := c.telemetry; t != nil {
		for i := range out {
			out[i].TelemetryStale, out[i].TelemetryAgeSeconds, _ = t.siteStale(i)
		}
	}
	return out
}

// Partitions fetches every site's full partition (KindShipAll) and
// returns the union plus each tuple's home site. This is the online
// auditor's oracle input; it costs one baseline-query's worth of
// bandwidth, which is why audits are sampled.
func (c *Cluster) Partitions(ctx context.Context) (uncertain.DB, map[uncertain.TupleID]int, error) {
	v := c.newView(nil, 0, transport.Query{})
	resps, err := v.send(ctx, -1, transport.Request{Kind: transport.KindShipAll})
	if err != nil {
		return nil, nil, err
	}
	var union uncertain.DB
	homes := make(map[uncertain.TupleID]int)
	for i, resp := range resps {
		for _, rep := range resp.Tuples {
			union = append(union, rep.Tuple)
			homes[rep.Tuple.ID] = i
		}
	}
	return union, homes, nil
}

// WriteClusterStatus renders a health sweep as the human-readable table
// behind dsud-query -cluster-status and returns the number of healthy
// sites. now anchors the staleness column (pass time.Now()).
func WriteClusterStatus(w io.Writer, healths []SiteHealth, now time.Time) int {
	healthy := 0
	fmt.Fprintf(w, "%-5s %-9s %8s %6s %8s %8s %9s %7s %6s %8s %8s %10s %-11s %s\n",
		"SITE", "STATE", "TUPLES", "TREE", "SESSIONS", "INFLIGHT", "REPLICA", "WORKERS", "QUEUED", "P99MS", "UPTIME", "REQUESTS", "LAST-PUSH", "LAST-UPDATE")
	for _, h := range healths {
		if !h.Healthy() {
			fmt.Fprintf(w, "%-5d %-9s %s\n", h.Site, "DOWN", h.Err)
			continue
		}
		healthy++
		// A degraded site still counts as healthy (it answered the probe)
		// but the state column says so: its telemetry stream went silent.
		state := "HEALTHY"
		if h.TelemetryStale {
			state = "DEGRADED"
		}
		st := h.Status
		lastUpdate := "never"
		if st.LastUpdateUnixNano != 0 {
			lastUpdate = now.Sub(time.Unix(0, st.LastUpdateUnixNano)).Round(time.Second).String() + " ago"
		}
		// Workers reads busy/limit; an in-process site has no worker pool
		// and shows "-" rather than a misleading 0/0.
		workers := "-"
		if st.MuxWorkerLimit > 0 {
			workers = fmt.Sprintf("%d/%d", st.MuxWorkersBusy, st.MuxWorkerLimit)
		}
		p99 := "-"
		if st.LatencyP99Ms > 0 {
			p99 = fmt.Sprintf("%.2f", st.LatencyP99Ms)
		}
		// LAST-PUSH is the site's own account of its telemetry publisher
		// (new SiteStatus fields); "-" on builds or deployments without
		// the push plane.
		lastPush := "-"
		if st.TelemetryLastPushUnixNano != 0 {
			lastPush = now.Sub(time.Unix(0, st.TelemetryLastPushUnixNano)).Round(time.Second).String() + " ago"
		}
		fmt.Fprintf(w, "%-5d %-9s %8d %6d %8d %8d %4d@v%-3d %7s %6d %8s %8s %10d %-11s %s\n",
			h.Site, state, st.Tuples, st.TreeHeight, st.Sessions, st.InFlight,
			st.ReplicaSize, st.ReplicaVersion, workers, st.MuxQueued, p99,
			(time.Duration(st.UptimeSeconds * float64(time.Second))).Round(time.Second),
			st.RequestsTotal, lastPush, lastUpdate)
	}
	fmt.Fprintf(w, "%d/%d sites healthy\n", healthy, len(healths))
	return healthy
}
