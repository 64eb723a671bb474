package msg_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/msg"
	"repro/internal/prtree"
	"repro/internal/uncertain"
)

// scanDominates is the linear scan the index replaced, kept as its oracle:
// some point of s covers q and differs from it.
func scanDominates(s msg.Summary, q []float64) bool {
	w := s.Width
	for at := 0; w > 0 && at+w <= len(s.Coords); at += w {
		a, covers := s.Coords[at:at+w], true
		for k, v := range a {
			if v > q[k] {
				covers = false
				break
			}
		}
		if covers && !slices.Equal(a, q) {
			return true
		}
	}
	return false
}

// points is s's points in a canonical order, to compare summaries as
// multisets.
func points(s msg.Summary) [][]float64 {
	var out [][]float64
	for at := 0; at+s.Width <= len(s.Coords) && s.Width > 0; at += s.Width {
		out = append(out, s.Coords[at:at+s.Width])
	}
	slices.SortFunc(out, slices.Compare)
	return out
}

// checkSummary fails unless s's index holds s's points and answers every
// query as the scan does.
func checkSummary(t *testing.T, what string, s msg.Summary, queries [][]float64) {
	t.Helper()
	x := s.Index()
	if got, want := points(x.Summary), points(s); !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("%s: indexed points %v, summary %v", what, got, want)
	}
	for _, q := range queries {
		if got, want := x.Dominates(q), scanDominates(s, q); got != want {
			t.Fatalf("%s: Dominates(%v) = %v, scan %v over %v", what, q, got, want, s.Coords)
		}
	}
}

// The index answers every query as the linear scan does: widths 1–5,
// coordinates from a handful of values so that equal points (not
// dominating: no strict coordinate), duplicates and ties are common,
// every point of the summary asked about itself, empty summaries, and a
// chain of With that the queries follow. Counting an equal point as
// dominating fails the seeds below.
func FuzzSummaryDominates(f *testing.F) {
	f.Add([]byte{2, 9, 1, 5, 3, 3, 5, 1, 0, 0, 2, 2, 6, 6, 3, 3})
	f.Add([]byte{0, 40, 3, 1, 4, 1, 5, 2, 6, 5, 3, 5, 0, 2, 4, 6, 1, 3})
	f.Add([]byte{4, 0, 1, 2, 3, 4, 5})
	f.Add([]byte{1, 200, 0, 1, 2, 3, 4, 5, 6, 0, 1, 2, 3, 4, 5, 6, 6, 5, 4, 3, 2, 1, 0, 1, 1, 2, 2, 3, 3, 4, 4})
	f.Add(append([]byte{2, 255}, make([]byte, 90)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		w := 1 + int(data[0])%5
		n := int(data[1]) % 48 // how many of the coordinates form the summary
		vals := make([]float64, 0, len(data)-2)
		for _, b := range data[2:] {
			vals = append(vals, float64(b%7)/2)
		}
		n = min(n*w, len(vals)/w*w)
		s := msg.Summary{Width: w, Coords: slices.Clone(vals[:n])}
		var queries [][]float64
		for at := 0; at+w <= len(vals); at += w {
			queries = append(queries, vals[at:at+w])
		}
		checkSummary(t, "summary", s, queries)
		// A chain of inserts, each indexed afresh, the queries and the
		// inserted points with them.
		for _, q := range queries[n/w:] {
			s = s.With(geom.Point(q), nil)
			checkSummary(t, fmt.Sprintf("after With(%v)", q), s, queries)
		}
	})
}

// Only a summary of whole points gets an index, and an empty one
// dominates nothing.
func TestIndexNeedsWholePoints(t *testing.T) {
	if (msg.Summary{Width: 2, Coords: []float64{1}}).Index() != nil || (msg.Summary{}).Index() != nil {
		t.Fatal("a summary of partial points, or of no width, has an index")
	}
	if (msg.Summary{Width: 3}).Index().Dominates([]float64{1, 1, 1}) {
		t.Fatal("an empty summary dominates")
	}
}

// realSummaries are the benchmark's own shapes: each site's certain
// skyline on the full space, and as queries the tuples a query at q = 0.3
// broadcasts from: every site's local skyline at that threshold.
type realSummaries struct {
	sums    []msg.Summary
	queries [][]float64
}

var (
	realOnce sync.Once
	realSets map[string]realSummaries
)

func summariesOf(b *testing.B) map[string]realSummaries {
	realOnce.Do(func() {
		realSets = map[string]realSummaries{}
		for _, shape := range []struct {
			name   string
			n, m   int
			values gen.ValueDist
		}{
			{"wire_tcp", 8000, 8, gen.Anticorrelated},
			{"compute_inproc", 100000, 10, gen.Independent},
		} {
			db, err := gen.Generate(gen.Config{N: shape.n, Dims: 3, Values: shape.values, Probs: gen.UniformProb, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			parts, err := gen.Partition(db, shape.m, 2)
			if err != nil {
				b.Fatal(err)
			}
			var set realSummaries
			for _, part := range parts {
				tree := prtree.Bulk(part, 3, 0)
				set.sums = append(set.sums, msg.Summary{Width: 3, Coords: tree.CertainSkyline(nil)})
				tree.LocalSkylineFunc(0.3, nil, func(m uncertain.SkylineMember) bool {
					set.queries = append(set.queries, m.Tuple.Point)
					return true
				})
			}
			realSets[shape.name] = set
		}
	})
	return realSets
}

// The coordinator's routing kernel on real summaries: one query against
// every site's summary, by the linear scan and by the index.
func BenchmarkSummaryDominates(b *testing.B) {
	sets := summariesOf(b)
	for _, name := range []string{"compute_inproc", "wire_tcp"} {
		set := sets[name]
		indexed := make([]*msg.Index, len(set.sums))
		for i, s := range set.sums {
			indexed[i] = s.Index()
		}
		for _, kernel := range []struct {
			name string
			test func(i int, q []float64) bool
		}{
			{"scan", func(i int, q []float64) bool { return scanDominates(set.sums[i], q) }},
			{"index", func(i int, q []float64) bool { return indexed[i].Dominates(q) }},
		} {
			b.Run(name+"/"+kernel.name, func(b *testing.B) {
				hits := 0
				for k := 0; k < b.N; k++ {
					q := set.queries[k%len(set.queries)]
					for i := range set.sums {
						if kernel.test(i, q) {
							hits++
						}
					}
				}
				b.ReportMetric(float64(hits)/float64(b.N), "sites/op")
			})
		}
	}
}
