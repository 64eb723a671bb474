// Command dsud-top is a live terminal dashboard for a running DSUD
// cluster. It reads a watching coordinator's /clusterz document
// (dsud-query -watch) and renders, top(1)-style, every site's row from the
// coordinator's latest status poll of that site: request rate, in-flight
// count, windowed p50/p99 latency, mux worker-pool saturation, poll age,
// staleness marks and a sparkline of recent p99 history from the
// coordinator's per-site ring, with a line for each objective the watch
// judges breached (dsud-query -watch -slo-p99).
//
// Usage:
//
//	dsud-top -cluster http://127.0.0.1:9100
//	dsud-top -cluster 127.0.0.1:9100 -interval 1s
//	dsud-top -cluster 127.0.0.1:9100 -once   # single frame, no clearing (CI)
//
// The address may omit the scheme (host:port implies http://).
//
// Exit status: 0; with -once, 1 when the coordinator is unreachable or any
// site in the cluster view is stale — a partial frame must not pass a CI
// smoke.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/dsq"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		clusterFlag = flag.String("cluster", "", "watching coordinator /clusterz base URL, a dsud-query -watch -debug-addr (required)")
		interval    = flag.Duration("interval", 2*time.Second, "poll and redraw cadence")
		once        = flag.Bool("once", false, "render a single frame without clearing and exit (scripting/CI)")
	)
	flag.Parse()
	if *clusterFlag == "" {
		flag.Usage()
		return 2
	}
	top := &top{
		client:  &http.Client{Timeout: 2 * time.Second},
		cluster: normalizeURL(strings.TrimSpace(*clusterFlag)),
	}

	if *once {
		down := top.render(os.Stdout)
		if down > 0 {
			return 1
		}
		return 0
	}

	interrupt := make(chan os.Signal, 1)
	signal.Notify(interrupt, os.Interrupt)
	ticker := time.NewTicker(*interval)
	defer ticker.Stop()
	for {
		fmt.Print("\x1b[H\x1b[2J") // cursor home + clear: redraw in place
		top.render(os.Stdout)
		select {
		case <-interrupt:
			fmt.Println()
			return 0
		case <-ticker.C:
		}
	}
}

type top struct {
	client  *http.Client
	cluster string // /clusterz base URL
}

// render draws one frame from the coordinator's /clusterz document and
// returns how many entries are bad (coordinator unreachable, or sites
// stale) — the -once exit signal.
func (t *top) render(w *os.File) int {
	doc, err := t.fetchClusterz()
	if err != nil {
		fmt.Fprintf(w, "cluster %s: %v\n", trimURL(t.cluster), err)
		return 1
	}
	fmt.Fprintf(w, "dsud-top  %s  cluster %s  %d site(s): %d fresh, %d stale\n",
		time.Now().Format("15:04:05"), trimURL(t.cluster), doc.Sites, doc.Fresh, doc.Stale)
	fmt.Fprintf(w, "cluster rate %.1f/s  p50 %s  p95 %s  p99 %s  (merged over fresh sites, poll interval %v)\n\n",
		doc.Rate, ms(doc.P50Ms), ms(doc.P95Ms), ms(doc.P99Ms), time.Duration(doc.IntervalNS))
	fmt.Fprintf(w, "%-5s %-6s %7s %8s %8s %8s %8s %8s %8s %6s %6s  %s\n",
		"SITE", "STATE", "AGE", "POLLS", "TUPLES", "INFLIGHT", "RPS", "P50MS", "P99MS", "BUSY", "QUEUED", "P99 HISTORY")
	bad := 0
	for _, s := range doc.PerSite {
		if s.Latest == nil {
			fmt.Fprintf(w, "%-5d %-6s %s\n", s.Site, "DOWN", s.Err)
			bad++
			continue
		}
		state := "FRESH"
		if s.Stale {
			state = "STALE"
			bad++
		}
		st := s.Latest
		fmt.Fprintf(w, "%-5d %-6s %6.1fs %8d %8d %8d %8.1f %8s %8s %6d %6d  %s\n",
			s.Site, state, s.AgeSeconds, s.Polls, st.Tuples, st.InFlight, st.WindowRate,
			ms(st.LatencyP50Ms), ms(st.LatencyP99Ms),
			st.MuxWorkersBusy, st.MuxQueued, spark(s.History, 32))
	}
	for _, o := range doc.SLO {
		if o.Breached {
			fmt.Fprintf(w, "slo %s BREACHED x%d: current %.4g target %.4g burn %.2f\n",
				o.Name, o.SustainedBreaches, o.Current, o.Target, o.Burn)
		}
	}
	return bad
}

func (t *top) fetchClusterz() (*dsq.Clusterz, error) {
	resp, err := t.client.Get(t.cluster + "/clusterz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("http %d", resp.StatusCode)
	}
	var doc dsq.Clusterz
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, err
	}
	return &doc, nil
}

var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// spark renders the p99 of up to width polls as a unicode sparkline,
// scaled to the window's own maximum (flat zero history renders as a
// floor line).
func spark(pts []dsq.WatchPoint, width int) string {
	if len(pts) == 0 {
		return ""
	}
	if len(pts) > width {
		pts = pts[len(pts)-width:]
	}
	max := 0.0
	for _, p := range pts {
		if p.P99Ms > max {
			max = p.P99Ms
		}
	}
	var b strings.Builder
	for _, p := range pts {
		i := 0
		if max > 0 {
			i = int(p.P99Ms / max * float64(len(sparkLevels)-1))
			if i < 0 {
				i = 0
			}
			if i >= len(sparkLevels) {
				i = len(sparkLevels) - 1
			}
		}
		b.WriteRune(sparkLevels[i])
	}
	return b.String()
}

// ms renders a windowed latency figure, "-" when the site saw no traffic
// in the window.
func ms(v float64) string {
	if v <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", v)
}

// normalizeURL accepts host:port or a full URL and returns a scheme-ful
// base with no trailing slash.
func normalizeURL(s string) string {
	if !strings.Contains(s, "://") {
		s = "http://" + s
	}
	return strings.TrimRight(s, "/")
}

// trimURL shortens a base URL for the frame's header.
func trimURL(s string) string {
	s = strings.TrimPrefix(s, "http://")
	if len(s) > 28 {
		s = s[:28]
	}
	return s
}
