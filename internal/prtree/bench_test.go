package prtree

import (
	"fmt"
	"math/rand"
	"testing"

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
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var size int
			for i := 0; i < b.N; i++ {
				size = len(tr.LocalSkyline(0.3, nil))
			}
			b.ReportMetric(float64(size), "skyline")
		})
	}
}

// BenchmarkDominatedCandidates is the §5.4 promotion search a delete runs
// at its home site: the tuples the deleted one dominated whose skyline
// probability reaches q.
func BenchmarkDominatedCandidates(b *testing.B) {
	db := benchDB(100000, 3)
	tr := Bulk(db, 3, 0)
	var found int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := db[i%len(db)]
		tr.DominatedCandidates(p.Point, nil, p.ID, 0.3, func(uncertain.SkylineMember) bool {
			found++
			return true
		})
	}
	b.ReportMetric(float64(found)/float64(b.N), "candidates/op")
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
