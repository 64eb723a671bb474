package audit

import (
	"context"
	"net"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/site"
	"repro/internal/transport"
	"repro/internal/uncertain"
)

func makeWorkload(t testing.TB, n, d, m int, seed int64) []uncertain.DB {
	t.Helper()
	db, err := gen.Generate(gen.Config{N: n, Dims: d, Values: gen.Anticorrelated, Probs: gen.UniformProb, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := gen.Partition(db, m, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	return parts
}

// startTCPSites serves each partition from a real TCP server and returns
// the listen addresses plus the live engines (so tests can inject
// faults).
func startTCPSites(t *testing.T, parts []uncertain.DB, dims int) ([]string, []*site.Engine) {
	t.Helper()
	addrs := make([]string, len(parts))
	engines := make([]*site.Engine, len(parts))
	for i, part := range parts {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = site.New(i, part, dims, 0)
		srv := transport.NewServer(engines[i], nil)
		go srv.Serve(lis)
		t.Cleanup(func() { srv.Close() })
		addrs[i] = lis.Addr().String()
	}
	return addrs, engines
}

// With -audit-fraction 1.0 over a two-site TCP cluster, a correct
// implementation must audit clean for both DSUD and e-DSUD.
func TestAuditCleanTwoSiteTCP(t *testing.T) {
	parts := makeWorkload(t, 400, 3, 2, 71)
	addrs, _ := startTCPSites(t, parts, 3)
	cluster, err := core.Open(core.ClusterConfig{Addrs: addrs, Dims: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	reg := obs.NewRegistry()
	a := New(Config{Fraction: 1.0, MaxReportChecks: -1, MaxDismissalChecks: -1, MCSamples: 4000, Seed: 7}, reg)
	for _, algo := range []core.Algorithm{core.DSUD, core.EDSUD} {
		opts := core.Options{Threshold: 0.3, Algorithm: algo}
		rep, err := core.Run(context.Background(), cluster, opts)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		out, err := a.MaybeAudit(context.Background(), cluster, opts, rep)
		if err != nil {
			t.Fatalf("%v audit: %v", algo, err)
		}
		if out == nil {
			t.Fatalf("%v: fraction 1.0 must audit every query", algo)
		}
		if !out.Clean() {
			t.Fatalf("%v: audit found violations: %v", algo, out.Violations)
		}
		if out.Checks == 0 {
			t.Fatalf("%v: audit ran no checks", algo)
		}
	}
	if a.Audited() != 2 {
		t.Fatalf("audited %d queries, want 2", a.Audited())
	}
	if a.Violations() != 0 {
		t.Fatalf("violations = %d, want 0", a.Violations())
	}
	if got := reg.Counter("dsud_audit_queries_total").Value(); got != 2 {
		t.Fatalf("dsud_audit_queries_total = %d, want 2", got)
	}
	for _, name := range checkNames {
		if got := reg.Counter("dsud_audit_violations_total", "check", name).Value(); got != 0 {
			t.Fatalf("dsud_audit_violations_total{check=%q} = %d, want 0", name, got)
		}
	}
}

// An injected unsound prune (the site discards every dominated candidate
// regardless of the Observation-2 bound) must surface as a nonzero
// dsud_audit_violations_total and a flight-recorder dump.
func TestAuditDetectsInjectedPruneBug(t *testing.T) {
	parts := makeWorkload(t, 400, 3, 2, 72)
	addrs, engines := startTCPSites(t, parts, 3)
	for _, eng := range engines {
		eng.TestingForceBadPrune(true)
	}
	dumpDir := t.TempDir()
	fr := flight.New(16)
	fr.SetDumpDir(dumpDir)
	cluster, err := core.Open(core.ClusterConfig{Addrs: addrs, Dims: 3, FlightRecorder: fr})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	reg := obs.NewRegistry()
	a := New(Config{Fraction: 1.0, MaxReportChecks: -1, MaxDismissalChecks: -1, Seed: 7, Flight: fr}, reg)

	// A low threshold keeps many dominated-but-qualified tuples in play,
	// so the unsound prune has victims to dismiss.
	opts := core.Options{Threshold: 0.05, Algorithm: core.DSUD}
	rep, err := core.Run(context.Background(), cluster, opts)
	if err != nil {
		t.Fatal(err)
	}
	out, err := a.Audit(context.Background(), cluster, opts, rep)
	if err != nil {
		t.Fatal(err)
	}
	if out.Clean() {
		t.Fatal("audit did not detect the injected prune bug")
	}
	sawDismissal := false
	for _, v := range out.Violations {
		if v.Check == CheckDismissal {
			sawDismissal = true
		}
	}
	if !sawDismissal {
		t.Fatalf("expected a false-dismissal violation, got %v", out.Violations)
	}
	if got := reg.Counter("dsud_audit_violations_total", "check", CheckDismissal).Value(); got == 0 {
		t.Fatal("dsud_audit_violations_total{check=false-dismissal} stayed zero")
	}
	ents, err := os.ReadDir(dumpDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) == 0 {
		t.Fatal("no flight-recorder dump was written")
	}
	found := false
	for _, ent := range ents {
		if strings.Contains(ent.Name(), "audit-violation") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no audit-violation dump among %v", ents)
	}
}

// The monotone-delivery check must flag a decreasing-order violation and
// stay quiet for algorithms that do not guarantee the order.
func TestMonotoneCheck(t *testing.T) {
	a := New(Config{Fraction: 1}, nil)
	rep := &core.Report{}
	rep.FeedbackLocal = []float64{0.9, 0.5, 0.7}
	out := &Outcome{}
	a.auditMonotone(out, core.Options{Algorithm: core.DSUD}, rep)
	if len(out.Violations) != 1 || out.Violations[0].Check != CheckMonotone {
		t.Fatalf("violations = %v, want one monotone violation", out.Violations)
	}
	// e-DSUD reorders by Corollary-2 bounds: exempt.
	out = &Outcome{}
	a.auditMonotone(out, core.Options{Algorithm: core.EDSUD}, rep)
	if len(out.Violations) != 0 {
		t.Fatalf("e-DSUD must be exempt, got %v", out.Violations)
	}
	// The round-robin ablation breaks the order on purpose: exempt.
	out = &Outcome{}
	a.auditMonotone(out, core.Options{Algorithm: core.DSUD, Policy: core.PolicyRoundRobin}, rep)
	if len(out.Violations) != 0 {
		t.Fatalf("round-robin must be exempt, got %v", out.Violations)
	}
}

// Sampling must respect the configured fraction at the extremes.
func TestShouldAuditFraction(t *testing.T) {
	never := New(Config{Fraction: 0}, nil)
	always := New(Config{Fraction: 1}, nil)
	for i := 0; i < 100; i++ {
		if never.ShouldAudit() {
			t.Fatal("fraction 0 audited")
		}
		if !always.ShouldAudit() {
			t.Fatal("fraction 1 skipped")
		}
	}
	var nilAud *Auditor
	if nilAud.ShouldAudit() {
		t.Fatal("nil auditor audited")
	}
	half := New(Config{Fraction: 0.5, Seed: 11}, nil)
	hits := 0
	for i := 0; i < 1000; i++ {
		if half.ShouldAudit() {
			hits++
		}
	}
	if hits < 400 || hits > 600 {
		t.Fatalf("fraction 0.5 hit %d/1000", hits)
	}
}

// Truncated queries (TopK / MaxResults) deliberately drop qualified
// tuples; the dismissal check must not flag them.
func TestDismissalExemptForTruncatedQueries(t *testing.T) {
	parts := makeWorkload(t, 200, 2, 2, 73)
	cluster, err := core.Open(core.ClusterConfig{Partitions: parts, Dims: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	a := New(Config{Fraction: 1, MaxDismissalChecks: -1, Seed: 3}, nil)
	opts := core.Options{Threshold: 0.1, Algorithm: core.EDSUD, MaxResults: 1}
	rep, err := core.Run(context.Background(), cluster, opts)
	if err != nil {
		t.Fatal(err)
	}
	out, err := a.Audit(context.Background(), cluster, opts, rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out.Violations {
		if v.Check == CheckDismissal {
			t.Fatalf("truncated query flagged for dismissal: %v", v)
		}
	}
}

// An untraced query's audit outcome carries the query's own query_id, the
// one its flight record is keyed by.
func TestAuditUntracedQueryID(t *testing.T) {
	parts := makeWorkload(t, 200, 2, 2, 74)
	fr := flight.New(4)
	cluster, err := core.Open(core.ClusterConfig{Partitions: parts, Dims: 2, FlightRecorder: fr})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	a := New(Config{Fraction: 1, Seed: 5}, nil)
	opts := core.Options{Threshold: 0.3}
	rep, err := core.Run(context.Background(), cluster, opts)
	if err != nil {
		t.Fatal(err)
	}
	out, err := a.Audit(context.Background(), cluster, opts, rep)
	if err != nil {
		t.Fatal(err)
	}
	rec := fr.Snapshot()[0]
	if want := obs.QueryID(rec.QueryID); rec.QueryID == 0 || out.QueryID != want {
		t.Fatalf("audit outcome query_id %s, flight record %s", out.QueryID, want)
	}
}
