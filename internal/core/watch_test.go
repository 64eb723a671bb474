package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/gen"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/obs/slo"
	"repro/internal/site"
	"repro/internal/transport"
	"repro/internal/uncertain"
)

// startWatchedSite serves one partition from a TCP server wired the way
// cmd/dsud-site wires it.
func startWatchedSite(t *testing.T, id int, part uncertain.DB, dims int, addrHint string) (string, *transport.Server) {
	t.Helper()
	lis, err := net.Listen("tcp", addrHint)
	if err != nil {
		t.Fatal(err)
	}
	eng := site.New(id, part, dims, 0)
	srv := transport.NewServer(eng, nil)
	eng.SetWorkerStats(srv.WorkerStats)
	go srv.Serve(lis)
	t.Cleanup(func() { srv.Close() })
	return lis.Addr().String(), srv
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// clusterzGet fetches one rendering of the watch's /clusterz handler.
func clusterzGet(t *testing.T, w *ClusterWatch, query string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	w.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/clusterz"+query, nil))
	if rec.Code != 200 {
		t.Fatalf("/clusterz%s status %d: %s", query, rec.Code, rec.Body)
	}
	return rec.Body.String()
}

func clusterzDoc(t *testing.T, w *ClusterWatch, query string) Clusterz {
	t.Helper()
	var doc Clusterz
	if err := json.Unmarshal([]byte(clusterzGet(t, w, query)), &doc); err != nil {
		t.Fatalf("decode /clusterz: %v", err)
	}
	return doc
}

func sloByName(statuses []slo.Status) map[string]slo.Status {
	m := make(map[string]slo.Status, len(statuses))
	for _, st := range statuses {
		m[st.Name] = st
	}
	return m
}

func federation(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// The acceptance path of the watch, under -race: two real TCP sites are
// polled into /clusterz and the federation view, and the watch judges an
// objective no request can meet over their windows; killing one turns it
// stale there and its objective abstains, and restarting it on the same
// address brings it back through the retry transport's redial.
func TestClusterWatchKillAndRecover(t *testing.T) {
	parts, _ := makeWorkload(t, 300, 2, 2, gen.Independent, 71)
	const interval = 100 * time.Millisecond

	addr0, _ := startWatchedSite(t, 0, parts[0], 2, "127.0.0.1:0")
	addr1, srv1 := startWatchedSite(t, 1, parts[1], 2, "127.0.0.1:0")
	cluster, err := Open(ClusterConfig{Addrs: []string{addr0, addr1}, Dims: 2, RetryAttempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx := context.Background()
	if _, err := cluster.Query(ctx, Options{Threshold: 0.3}); err != nil {
		t.Fatal(err)
	}

	w := cluster.Watch(ctx, interval, time.Nanosecond)
	defer w.Stop()
	doc := clusterzDoc(t, w, "")
	if doc.Sites != 2 || doc.Fresh != 2 || doc.Stale != 0 || doc.P99Ms <= 0 {
		t.Fatalf("clusterz = %+v", doc)
	}
	s0 := doc.PerSite[0]
	if s0.Latest == nil || s0.Latest.Tuples != len(parts[0]) || len(s0.History) == 0 || s0.History[0].Tuples != len(parts[0]) {
		t.Fatalf("site 0 = %+v", s0)
	}
	// An objective abstains until its window holds 20 requests. Site 1's
	// must breach too, or its abstaining once stale would prove nothing.
	waitUntil(t, 5*time.Second, "the watch's SLO breaches", func() bool {
		if _, err := cluster.Query(ctx, Options{Threshold: 0.3}); err != nil {
			t.Fatal(err)
		}
		slos := sloByName(w.Snapshot(false).SLO)
		return slos["site0_request_p99"].Breached && slos["site1_request_p99"].Breached &&
			slos["cluster_request_p99"].Breached
	})
	if withoutHist := clusterzDoc(t, w, "?history=0"); len(withoutHist.PerSite[0].History) != 0 {
		t.Fatal("?history=0 still carries history")
	}

	reg := obs.NewRegistry()
	w.Expose(reg)
	for _, want := range []string{
		`dsud_cluster_site_up{site="0"} 1`,
		`dsud_cluster_site_up{site="1"} 1`,
		`dsud_cluster_tuples{site="0"} 150`,
		"dsud_cluster_last_poll_age_seconds",
		"dsud_cluster_merged_p99_ms",
		`dsud_slo_breached{slo="site0_request_p99"} 1`,
	} {
		if out := federation(t, reg); !strings.Contains(out, want) {
			t.Fatalf("federation view missing %q in:\n%s", want, out)
		}
	}

	killed := time.Now()
	srv1.Close()
	waitUntil(t, 5*time.Second, "site 1 stale", func() bool {
		d := clusterzDoc(t, w, "?history=0")
		return d.Stale == 1 && d.Fresh == 1 && d.PerSite[1].Stale
	})
	t.Logf("stale after %v (interval %v)", time.Since(killed).Round(time.Millisecond), interval)
	if text := clusterzGet(t, w, "?format=text"); !strings.Contains(text, "STALE") || !strings.Contains(text, "1/2 sites fresh") {
		t.Fatalf("text view:\n%s", text)
	}
	// The sweep that found site 1 stale judged it too: its objective
	// abstains rather than judge the last window it answered.
	if st := sloByName(clusterzDoc(t, w, "?history=0").SLO)["site1_request_p99"]; st.Samples != 0 || st.Breached {
		t.Fatalf("stale site's objective = %+v, want an abstention", st)
	}
	if out := federation(t, reg); !strings.Contains(out, `dsud_cluster_site_up{site="1"} 0`) {
		t.Fatalf("federation view still has site 1 up:\n%s", out)
	}

	startWatchedSite(t, 1, parts[1], 2, addr1)
	waitUntil(t, 5*time.Second, "site 1 fresh again", func() bool { return w.Snapshot(false).Fresh == 2 })
	if out := federation(t, reg); !strings.Contains(out, `dsud_cluster_site_up{site="1"} 1`) {
		t.Fatal("federation view did not recover site 1")
	}
}

// An in-process cluster is watched like a TCP one: every site is fresh,
// with history, from the first sweep on, and the text table ends every
// answering site's row with its p99 history, one sparkline rune per
// retained poll.
func TestClusterWatchInProcess(t *testing.T) {
	parts, _ := makeWorkload(t, 100, 2, 2, gen.Independent, 72)
	cluster, err := Open(ClusterConfig{Partitions: parts, Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx := context.Background()
	if _, err := cluster.Query(ctx, Options{Threshold: 0.3}); err != nil {
		t.Fatal(err)
	}
	w := cluster.Watch(ctx, 50*time.Millisecond, 0)
	defer w.Stop()
	doc := clusterzDoc(t, w, "")
	if doc.Sites != 2 || doc.Fresh != 2 || doc.Stale != 0 || doc.P99Ms <= 0 {
		t.Fatalf("in-process clusterz = %+v", doc)
	}
	for _, s := range doc.PerSite {
		if s.Stale || s.Latest == nil || len(s.History) == 0 {
			t.Fatalf("site %d = %+v", s.Site, s)
		}
	}

	waitUntil(t, 5*time.Second, "three polls", func() bool { return w.Snapshot(false).PerSite[1].Polls >= 3 })
	w.Stop()
	var sb strings.Builder
	w.WriteText(&sb)
	if header, _, _ := strings.Cut(sb.String(), "\n"); !strings.HasSuffix(header, " P99-HISTORY") {
		t.Fatalf("header has no P99-HISTORY column:\n%s", sb.String())
	}
	for _, s := range w.Snapshot(true).PerSite {
		row := regexp.MustCompile(fmt.Sprintf(`(?m)^%d +FRESH .* ([▁▂▃▄▅▆▇█]+)$`, s.Site)).FindStringSubmatch(sb.String())
		if row == nil || utf8.RuneCountInString(row[1]) != len(s.History) {
			t.Fatalf("site %d: %d retained polls, row %q in:\n%s", s.Site, len(s.History), row, sb.String())
		}
	}
}

// A breach the watch judges for slo.DefSustain consecutive sweeps is
// logged once at Warn through the cluster's logger.
func TestClusterWatchLogsSustainedBreach(t *testing.T) {
	parts, _ := makeWorkload(t, 100, 2, 2, gen.Independent, 73)
	var logs bytes.Buffer
	cluster, err := Open(ClusterConfig{Partitions: parts, Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if _, err := cluster.Query(ctx, Options{Threshold: 0.3}); err != nil {
			t.Fatal(err)
		}
	}
	cluster.logger = slog.New(slog.NewTextHandler(&logs, nil))
	w := cluster.Watch(ctx, 10*time.Millisecond, time.Nanosecond)
	waitUntil(t, 5*time.Second, "a sustained breach", func() bool {
		return sloByName(w.Snapshot(false).SLO)["cluster_request_p99"].SustainedBreaches > slo.DefSustain
	})
	w.Stop()
	if n := strings.Count(logs.String(), `level=WARN msg="slo sustained breach" slo=cluster_request_p99`); n != 1 {
		t.Fatalf("sustained breach logged %d times, want once:\n%s", n, logs.String())
	}
}

// wedgedClient answers KindStatus at once, or, when wedged, never: like
// a site that echoed the hello but whose engine lock is held, it returns
// only when the caller gives up.
type wedgedClient struct {
	id     int
	wedged bool
}

func (c wedgedClient) Call(ctx context.Context, req *msg.Request) (*msg.Response, error) {
	if c.wedged {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return &msg.Response{Status: &msg.SiteStatus{ID: c.id, Tuples: 10}}, nil
}

func (wedgedClient) Close() error { return nil }

// One site that never answers must neither hang a bounded health sweep nor
// turn the other sites stale.
func TestClusterWatchWedgedSite(t *testing.T) {
	cluster, err := NewClusterFromClients([]transport.Client{wedgedClient{id: 0}, wedgedClient{id: 1, wedged: true}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	var logs bytes.Buffer
	cluster.logger = slog.New(slog.NewTextHandler(&logs, nil))

	const interval = 100 * time.Millisecond
	start := time.Now()
	w := cluster.Watch(context.Background(), interval, 0)
	waitUntil(t, 3*interval-time.Since(start), "site 1 stale, site 0 fresh", func() bool {
		d := w.Snapshot(false)
		return d.PerSite[1].Stale && !d.PerSite[0].Stale
	})
	waitUntil(t, 5*time.Second, "a second sweep", func() bool { return w.Snapshot(false).PerSite[0].Polls >= 2 })
	doc := w.Snapshot(false)
	if doc.Fresh != 1 || !strings.Contains(doc.PerSite[1].Err, "deadline exceeded") {
		t.Fatalf("clusterz = %+v", doc)
	}
	w.Stop()
	var sb strings.Builder
	w.WriteText(&sb)
	if !regexp.MustCompile(`(?m)^1 +STALE +context deadline exceeded$`).MatchString(sb.String()) ||
		!strings.Contains(sb.String(), "1/2 sites fresh") {
		t.Fatalf("status table:\n%s", sb.String())
	}
	if !strings.Contains(logs.String(), "site poll failed") || !strings.Contains(logs.String(), "site=1") {
		t.Fatalf("poll failure not logged:\n%s", logs.String())
	}

	ctx, cancel := context.WithTimeout(context.Background(), interval)
	defer cancel()
	start = time.Now()
	healths := cluster.Health(ctx)
	if took := time.Since(start); took > 10*interval {
		t.Fatalf("bounded sweep took %v", took)
	}
	if healths[0].Err != nil || !errors.Is(healths[1].Err, context.DeadlineExceeded) {
		t.Fatalf("healths = %+v", healths)
	}
}
