package experiments

import (
	"context"
	"testing"
	"time"
)

// TestThroughputServeAdvantage pins the point of the serving tier: the
// same batch served from the warm materialized index must clear more
// queries per second than protocol rounds against the same delayed
// sites. The threshold is loose (CI machines are noisy); the committed
// bench baseline records the real margin and benchdiff gates on it.
func TestThroughputServeAdvantage(t *testing.T) {
	if testing.Short() {
		t.Skip("timing benchmark")
	}
	res, err := Throughput(context.Background(), ThroughputOptions{
		Concurrency: []int{1, 6},
		Queries:     6,
		N:           500,
		Sites:       3,
		SiteDelay:   time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d results, want 2", len(res))
	}
	for _, r := range res {
		if r.MuxQPS <= 0 || r.Queries < 2*r.Concurrency {
			t.Fatalf("malformed result: %+v", r)
		}
	}
	// The materialized tier answers from memory — no per-query site
	// round-trips at all — so even a loose floor sits far above the mux.
	for _, r := range res {
		if r.MaterializedQPS <= 0 || r.ServeSpeedup <= 0 {
			t.Fatalf("missing materialized measurement: %+v", r)
		}
	}
	if s := res[1].ServeSpeedup; s < 2 {
		t.Fatalf("materialized speedup at %d clients = %.2fx; prefix reads should beat protocol rounds",
			res[1].Concurrency, s)
	}
}
