package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// contract is the part of BENCHMARK.json the program must agree with.
type contract struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []contractMetric `json:"end_to_end"`
	PerLayer  []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name, Unit string
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// BENCHMARK.json and the program name the same workloads, for the same
// reasons.
func TestContractWorkloads(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the program %q (%q)",
				i, c.Workloads[i].Name, c.Workloads[i].Why, w.name, w.why)
		}
	}
}

var nameSyntax = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetrics holds one result to the contract: every declared metric
// exactly once, nothing else, declared units, finite values.
func checkMetrics(t *testing.T, what string, res *result, want []contractMetric) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", what, res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics emitted, %d declared", what, len(res.Metrics), len(want))
	}
	for _, m := range want {
		if !nameSyntax.MatchString(m.Name) {
			t.Errorf("%s: metric name %q breaks the name syntax", what, m.Name)
		}
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s declared but not emitted", what, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: metric %s in %q, declared in %q", what, m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s: metric %s = %v", what, m.Name, got.Value)
		}
	}
}

// exact lists the metrics that count protocol work. With the operation
// counts fixed (the quick profile) they must not differ between two runs
// of one seed. Wire bytes are left out: the coordinator draws its
// session ids from crypto/rand and gob encodes them at variable length.
func exact(name string) bool {
	switch {
	case name == "tuples_per_query", name == "serve.hit_ratio", name == "prtree.height",
		name == "prtree.local_skyline_size", name == "site.shipped_ratio":
		return true
	case strings.HasSuffix(name, "_per_query") && !strings.Contains(name, "_ms_") &&
		name != "core.allocs_per_query" && name != "transport.wire_bytes_per_query":
		return true
	case name == "core.answers_per_broadcast", name == "core.update_msgs_per_op",
		strings.HasPrefix(name, "transport.bytes_per_call."):
		return true
	}
	return false
}

// The quick profile runs every workload end to end and per layer, twice
// with one seed.
func TestQuickProfile(t *testing.T) {
	c := readContract(t)
	ctx := context.Background()
	start := time.Now()
	for i := range workloads {
		w := &workloads[i]
		var runs [2]map[string]metric
		for r := range runs {
			cfg := &config{seed: 5, quick: true}
			e2e, err := runEndToEnd(ctx, cfg, w)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			checkMetrics(t, w.name+" end to end", e2e, c.EndToEnd)
			for _, m := range c.EndToEnd {
				if e2e.Metrics[m.Name].Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.name, m.Name)
				}
			}
			layers, err := runPerLayer(ctx, cfg, w, "")
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			checkMetrics(t, w.name+" per layer", layers, c.PerLayer)
			runs[r] = layers.Metrics
			for name, m := range e2e.Metrics {
				runs[r][name] = m
			}
		}
		for name, first := range runs[0] {
			if exact(name) && first.Value != runs[1][name].Value {
				t.Errorf("%s: %s = %v, then %v with the same seed", w.name, name, first.Value, runs[1][name].Value)
			}
		}
		if w.name == "mixed_serve" {
			if got := runs[0]["serve.hit_ratio"].Value; math.Abs(got-8.0/9) > 1e-12 {
				t.Errorf("mixed_serve: serve.hit_ratio = %v, want 8/9", got)
			}
		}
	}
	t.Logf("quick profile, twice: %v", time.Since(start))
}
