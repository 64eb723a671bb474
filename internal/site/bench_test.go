package site

import (
	"context"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/msg"
	"repro/internal/uncertain"
)

// BenchmarkUpdateMix is a home site's share of the update mix on one
// 10k-tuple site whose index is warm at q = 0.3: each op inserts a fresh
// tuple, one in four near the origin, and then deletes it, the delete
// folding into the index and answering its own promotion candidates. It
// reports the two halves separately.
func BenchmarkUpdateMix(b *testing.B) {
	generate := func(n int, seed int64) uncertain.DB {
		db, err := gen.Generate(gen.Config{N: n, Dims: 3, Values: gen.Independent, Probs: gen.UniformProb, Seed: seed})
		if err != nil {
			b.Fatal(err)
		}
		return db
	}
	eng := New(0, generate(10000, 7), 3, 0)
	fresh := generate(1000, 8)
	for i := range fresh {
		fresh[i].ID += 1 << 20
		if i%4 == 0 {
			for j := range fresh[i].Point {
				fresh[i].Point[j] *= 0.2
			}
		}
	}
	ctx, q := context.Background(), msg.Query{Threshold: 0.3}
	handle := func(req *msg.Request) {
		if _, err := eng.Handle(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
	handle(&msg.Request{Kind: msg.KindInit, Session: 1, Query: q})
	handle(&msg.Request{Kind: msg.KindEndQuery, Session: 1})
	var insert, del time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tu := fresh[i%len(fresh)]
		start := time.Now()
		handle(&msg.Request{Kind: msg.KindInsert, Tuple: tu, Query: q})
		mid := time.Now()
		handle(&msg.Request{Kind: msg.KindDelete, ID: tu.ID, Point: tu.Point, Query: q})
		insert += mid.Sub(start)
		del += time.Since(mid)
	}
	b.ReportMetric(float64(insert.Nanoseconds())/float64(b.N), "insert-ns/op")
	b.ReportMetric(float64(del.Nanoseconds())/float64(b.N), "delete-ns/op")
}
