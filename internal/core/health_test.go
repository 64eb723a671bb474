package core

import (
	"context"
	"net"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
)

// A health sweep over two live TCP sites must report both healthy, with
// their tuple counts and replica versions, and a watch over them renders
// the -cluster-status table.
func TestClusterHealthTwoSitesTCP(t *testing.T) {
	parts, _ := makeWorkload(t, 200, 2, 2, gen.Independent, 71)
	addrs := startTCPSites(t, parts, 2)
	cluster, err := Open(ClusterConfig{Addrs: addrs, Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	// A query bumps the request counters so the sweep sees live traffic.
	if _, err := Run(context.Background(), cluster, Options{Threshold: 0.3, Algorithm: EDSUD}); err != nil {
		t.Fatal(err)
	}

	healths := cluster.Health(context.Background())
	if len(healths) != 2 {
		t.Fatalf("got %d entries, want 2", len(healths))
	}
	total := 0
	for i, h := range healths {
		if !h.Healthy() {
			t.Fatalf("site %d unhealthy: %v", i, h.Err)
		}
		st := h.Status
		if st.ID != i || st.Tuples != len(parts[i]) {
			t.Fatalf("site %d: status %+v, want id=%d tuples=%d", i, st, i, len(parts[i]))
		}
		if st.TreeHeight < 1 || st.RequestsTotal == 0 || st.UptimeSeconds < 0 {
			t.Fatalf("site %d: implausible status %+v", i, st)
		}
		if st.Sessions != 0 {
			t.Fatalf("site %d: %d sessions leaked after the query", i, st.Sessions)
		}
		total += st.Tuples
	}
	if total != 200 {
		t.Fatalf("tuple totals = %d, want 200", total)
	}

	out := statusTable(cluster)
	for _, want := range []string{"SITE", "FRESH", "TREE", "SESSIONS", "REPLICA", "WORKERS", "UPTIME", "REQUESTS", "LAST-UPDATE", "2/2 sites fresh"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "STALE") {
		t.Fatalf("no site should be stale:\n%s", out)
	}
}

// statusTable renders one bounded watch sweep the way dsud-query
// -cluster-status does.
func statusTable(c *Cluster) string {
	w := c.Watch(context.Background(), 5*time.Second, 0)
	w.Stop()
	var sb strings.Builder
	w.WriteText(&sb)
	return sb.String()
}

// A dead site must yield a STALE row, not a failed sweep.
func TestClusterHealthDeadSite(t *testing.T) {
	parts, _ := makeWorkload(t, 100, 2, 2, gen.Independent, 72)
	addrs := startTCPSites(t, parts, 2)
	cluster, err := Open(ClusterConfig{Addrs: addrs, Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	// Kill site 1's connection from the client side: the probe must fail
	// for that site only.
	cluster.clients[1].Close()

	healths := cluster.Health(context.Background())
	if !healths[0].Healthy() {
		t.Fatalf("site 0 should stay healthy: %v", healths[0].Err)
	}
	if healths[1].Healthy() {
		t.Fatal("site 1 should be down after its connection closed")
	}

	if out := statusTable(cluster); !strings.Contains(out, "STALE") || !strings.Contains(out, "1/2 sites fresh") {
		t.Fatalf("table should show the dead site:\n%s", out)
	}
}

// A site that refuses the dial fails neither the open of a redialling
// cluster (it dials lazily, inside the sweep) nor the sweep: its row is
// STALE with the dial error beside the live site's FRESH one.
func TestClusterHealthUnreachableSite(t *testing.T) {
	parts, _ := makeWorkload(t, 100, 2, 2, gen.Independent, 75)
	live, _ := startWatchedSite(t, 0, parts[0], 2, "127.0.0.1:0")
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := lis.Addr().String()
	lis.Close()
	cluster, err := Open(ClusterConfig{Addrs: []string{live, dead}, Dims: 2, RetryAttempts: 1})
	if err != nil {
		t.Fatalf("open with a dead site: %v", err)
	}
	defer cluster.Close()
	out := statusTable(cluster)
	if !strings.Contains(out, "1/2 sites fresh") || !regexp.MustCompile(`(?m)^0 +FRESH `).MatchString(out) ||
		!regexp.MustCompile(`(?m)^1 +STALE +.*dial`).MatchString(out) {
		t.Fatalf("status table:\n%s", out)
	}
}
