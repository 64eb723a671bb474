package prtree

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/uncertain"
)

func benchDB(n, d int) uncertain.DB {
	return randomDB(rand.New(rand.NewSource(7)), n, d)
}

func BenchmarkBulkLoad(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		db := benchDB(n, 3)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Bulk(db, 3, 0)
			}
		})
	}
}

func BenchmarkInsert(b *testing.B) {
	db := benchDB(100000, 3)
	tr := New(3, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(db[i%len(db)].Clone())
	}
}

func BenchmarkDelete(b *testing.B) {
	db := benchDB(200000, 3)
	tr := Bulk(db, 3, 0)
	b.ResetTimer()
	for i := 0; i < b.N && i < len(db); i++ {
		if err := tr.Delete(db[i].ID, db[i].Point); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCrossSkyProb(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		db := benchDB(n, 3)
		tr := Bulk(db, 3, 0)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr.CrossSkyProb(db[i%len(db)], nil)
			}
		})
	}
}

func BenchmarkLocalSkyline(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		db := benchDB(n, 3)
		tr := Bulk(db, 3, 0)
		for _, q := range []float64{0.25, 0.3} {
			b.Run(fmt.Sprintf("n=%d/q=%v", n, q), func(b *testing.B) {
				var size int
				for i := 0; i < b.N; i++ {
					size = len(tr.LocalSkyline(q, nil))
				}
				b.ReportMetric(float64(size), "skyline")
			})
		}
	}
}

// BenchmarkDominatedCandidates is the §5.4 promotion search a delete runs
// at its home site: the tuples the deleted one dominated whose skyline
// probability reaches q. The update-mix case is the search a delete pays
// for on one 10k-tuple site of a generated workload, where one update in
// four lands near the origin and dominates much of the site.
func BenchmarkDominatedCandidates(b *testing.B) {
	run := func(b *testing.B, tr *Tree, probes uncertain.DB) {
		var found int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := probes[i%len(probes)]
			tr.DominatedCandidates(p.Point, nil, p.ID, 0.3, func(uncertain.SkylineMember) bool {
				found++
				return true
			})
		}
		b.ReportMetric(float64(found)/float64(b.N), "candidates/op")
	}
	b.Run("n=100000", func(b *testing.B) {
		db := benchDB(100000, 3)
		run(b, Bulk(db, 3, 0), db)
	})
	b.Run("update-mix/n=10000", func(b *testing.B) {
		site := generate(b, 10000, 7)
		probes := generate(b, 1000, 8)
		for i := range probes {
			probes[i].ID += 1 << 20
			if i%4 == 0 {
				for j := range probes[i].Point {
					probes[i].Point[j] *= 0.2
				}
			}
		}
		run(b, Bulk(site, 3, 0), probes)
	})
}

// generate is n tuples of gen's 3-d independent workload with uniform
// existential probabilities.
func generate(b *testing.B, n int, seed int64) uncertain.DB {
	db, err := gen.Generate(gen.Config{N: n, Dims: 3, Values: gen.Independent, Probs: gen.UniformProb, Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkLinearScanSkyProb is the no-index strawman CrossSkyProb for
// comparison with the PR-tree path above.
func BenchmarkLinearScanSkyProb(b *testing.B) {
	db := benchDB(100000, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.CrossSkyProb(db[i%len(db)], nil)
	}
}
