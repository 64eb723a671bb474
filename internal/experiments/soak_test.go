package experiments

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

func TestValidateProfile(t *testing.T) {
	for _, p := range []string{ProfileSteady, ProfileBurst, ProfileRamp} {
		if err := ValidateProfile(p); err != nil {
			t.Errorf("ValidateProfile(%q) = %v", p, err)
		}
	}
	if err := ValidateProfile("sawtooth"); err == nil || !strings.Contains(err.Error(), "sawtooth") {
		t.Errorf("ValidateProfile(sawtooth) = %v, want named error", err)
	}
}

// TestSoakRateProfiles pins the arrival-rate shapes deterministically —
// no clocks, just the rate function.
func TestSoakRateProfiles(t *testing.T) {
	o := SoakOptions{RPS: 100, Duration: 10 * time.Second, Profile: ProfileSteady}.withDefaults()
	if r := o.rate(3 * time.Second); r != 100 {
		t.Errorf("steady rate = %v, want 100", r)
	}

	o.Profile = ProfileBurst // defaults: factor 4, period 1s
	if r := o.rate(500 * time.Millisecond); r != 400 {
		t.Errorf("burst-on rate = %v, want 400", r)
	}
	if r := o.rate(1500 * time.Millisecond); r != 100 {
		t.Errorf("burst-off rate = %v, want 100", r)
	}
	if r := o.rate(2200 * time.Millisecond); r != 400 {
		t.Errorf("second burst rate = %v, want 400", r)
	}

	o.Profile = ProfileRamp
	if r := o.rate(0); r != 0 {
		t.Errorf("ramp start rate = %v, want 0", r)
	}
	if r := o.rate(5 * time.Second); r != 100 {
		t.Errorf("ramp midpoint rate = %v, want 100 (the mean)", r)
	}
	if r := o.rate(10 * time.Second); r != 200 {
		t.Errorf("ramp end rate = %v, want 200", r)
	}
	if r := o.rate(15 * time.Second); r != 200 {
		t.Errorf("ramp past-end rate = %v, want clamped 200", r)
	}
}

// TestSoakGapProfiles pins the scheduler's inter-arrival arithmetic. The
// ramp case is the regression guard for rate(0)=0: sampling the rate at
// the last arrival would clamp to 1e-3 rps and schedule the next arrival
// ~1000s out, past the iteration end, so a ramp soak would emit exactly
// one request. The integrated schedule instead starts at sqrt(D/RPS) and
// delivers the documented mean of RPS·Duration arrivals per iteration.
func TestSoakGapProfiles(t *testing.T) {
	o := SoakOptions{RPS: 100, Duration: 10 * time.Second, Profile: ProfileSteady}.withDefaults()
	if g := o.gap(3 * time.Second); g != 10*time.Millisecond {
		t.Errorf("steady gap = %v, want 10ms", g)
	}
	o.Profile = ProfileBurst
	if g := o.gap(500 * time.Millisecond); g != 2500*time.Microsecond {
		t.Errorf("burst-on gap = %v, want 2.5ms", g)
	}

	o.Profile = ProfileRamp
	// First gap: N(t) = RPS·t²/D = 1 at sqrt(D/RPS) ≈ 316ms. Anything on
	// the order of Duration means the degenerate one-request schedule.
	if g := o.gap(0); g < 300*time.Millisecond || g > 330*time.Millisecond {
		t.Errorf("ramp first gap = %v, want ~316ms", g)
	}
	// Walk the whole schedule: arrivals over one iteration must total
	// ~RPS·Duration (the ramp's mean rate is RPS).
	arrivals := 0
	for elapsed := time.Duration(0); elapsed < o.Duration; elapsed += o.gap(elapsed) {
		arrivals++
		if arrivals > 2000 {
			t.Fatal("ramp schedule did not terminate")
		}
	}
	if arrivals < 990 || arrivals > 1010 {
		t.Errorf("ramp arrivals = %d, want ~1000 (RPS·Duration)", arrivals)
	}
}

// TestSoakTallyUpdateLatency pins the update path's bookkeeping: updates
// classify outcomes and feed the live counters but never contribute a
// sample to the query latency distribution (their latency is taken under
// the quiesce write lock and would pollute the percentiles).
func TestSoakTallyUpdateLatency(t *testing.T) {
	var req, fail obs.Counter
	tally := &soakTally{requests: &req, failures: &fail}
	tally.record(5*time.Millisecond, nil) // a query
	tally.recordOutcome(nil)              // an ok update
	tally.recordOutcome(context.DeadlineExceeded)
	if got := len(tally.latsMS); got != 1 {
		t.Errorf("latsMS holds %d samples, want 1 (queries only)", got)
	}
	if ok, dl := tally.ok.Load(), tally.deadline.Load(); ok != 2 || dl != 1 {
		t.Errorf("ok=%d deadline=%d, want 2 and 1", ok, dl)
	}
	if req.Value() != 3 || fail.Value() != 1 {
		t.Errorf("requests=%d failures=%d, want 3 and 1", req.Value(), fail.Value())
	}
}

func TestSoakRejectsBadOptions(t *testing.T) {
	ctx := context.Background()
	if _, err := Soak(ctx, nil, SoakOptions{Profile: "nope"}); err == nil {
		t.Error("unknown profile accepted")
	}
	if _, err := Soak(ctx, nil, SoakOptions{UpdateFraction: 1.5}); err == nil {
		t.Error("update fraction 1.5 accepted")
	}
}

// TestSoakEndToEnd runs a short mixed query+update soak against live
// loopback sites and checks the result is coherent: outcomes
// partition the offered load, every percentile key carries one sample per
// iteration, and the scheduled-arrival window saw the traffic.
func TestSoakEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("drives live sites on the clock")
	}
	addrs, stop, err := StartLocalSites(400, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	cluster, err := core.Open(core.ClusterConfig{Addrs: addrs, Dims: DefaultDims})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	win := obs.NewWindow(obs.DefWindowWidth)
	_, first := cluster.Windows()
	var logged int
	res, err := Soak(context.Background(), cluster, SoakOptions{
		RPS:            60,
		Duration:       400 * time.Millisecond,
		Iterations:     2,
		Workers:        4,
		Profile:        ProfileBurst,
		UpdateFraction: 0.2,
		Window:         win,
		Logf:           func(string, ...any) { logged++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 {
		t.Fatal("soak offered no requests")
	}
	ok := res.Requests - res.Errors - res.Deadline
	if ok <= 0 {
		t.Fatalf("no successful requests: %+v", res)
	}
	if res.Profile != ProfileBurst || res.Iterations != 2 || res.UpdateFraction != 0.2 {
		t.Fatalf("options not echoed into result: %+v", res)
	}
	for _, key := range SoakPercentiles() {
		d := res.Percentile(key)
		if d.N != 2 {
			t.Errorf("latency[%s].N = %d, want one sample per iteration", key, d.N)
		}
		if d.Median <= 0 {
			t.Errorf("latency[%s] median = %v, want > 0", key, d.Median)
		}
	}
	// Percentiles must be ordered within each iteration's estimate.
	if p50, p99 := res.Percentile(SoakP50).Median, res.Percentile(SoakP99).Median; p50 > p99 {
		t.Errorf("p50 median %.3f > p99 median %.3f", p50, p99)
	}
	if res.ThroughputQPS.N != 2 || res.ThroughputQPS.Median <= 0 {
		t.Errorf("throughput dist = %+v, want 2 positive samples", res.ThroughputQPS)
	}
	if logged != 2 {
		t.Errorf("Logf called %d times, want once per iteration", logged)
	}
	if s := win.Snapshot(); int64(s.Count) == 0 {
		t.Error("scheduled-arrival window saw no observations")
	}
	if s := first.Snapshot(); int64(s.Count) == 0 {
		t.Error("time-to-first window saw no observations")
	}
	// The update stream must have landed: the cluster should hold tuples
	// in the synthetic soak ID range after a refresh-free query.
	if res.ErrorRate() > 0.5 {
		t.Errorf("error rate %.2f too high for an idle loopback cluster", res.ErrorRate())
	}
}
