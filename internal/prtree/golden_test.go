package prtree

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/uncertain"
)

// TestCrossSkyProbGoldenBits pins the exact bits of every window query on a
// seeded tree, before and after a fixed insert/delete script. The walks
// multiply in depth-first entry order, so any change to the layout, the
// split or the visiting order that reorders a product shows up here even
// when the oracle tests' 1e-9 tolerance would not.
func TestCrossSkyProbGoldenBits(t *testing.T) {
	want := map[int][2]uint64{ // capacity → {initial, after the script}
		0: {0xce5efe8108e6b814, 0xbce6dafb39b4594f},
		5: {0x7cd3e4ed7b129f6b, 0x248c7d601a6e5544},
	}
	for capacity, w := range want {
		db := randomDB(rand.New(rand.NewSource(7)), 5000, 3)
		tr := Bulk(db, 3, capacity)
		live := db.Clone()
		if got := goldenBits(tr, live); got != w[0] {
			t.Errorf("capacity %d initial: bits %#x, want %#x", capacity, got, w[0])
		}
		fresh := randomDB(rand.New(rand.NewSource(8)), 500, 3)
		for i := range fresh {
			fresh[i].ID += 1 << 20
			tr.Insert(fresh[i])
			victim := live[i*7]
			if err := tr.Delete(victim.ID, victim.Point); err != nil {
				t.Fatal(err)
			}
		}
		kept := live[:0:0]
		for i, tu := range live {
			if i%7 != 0 || i/7 >= len(fresh) {
				kept = append(kept, tu)
			}
		}
		kept = append(kept, fresh...)
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if got := goldenBits(tr, kept); got != w[1] {
			t.Errorf("capacity %d after script: bits %#x, want %#x", capacity, got, w[1])
		}
	}
}

// goldenBits hashes CrossSkyProb of every tuple in db and the
// DominatedCandidates members (ID and probability, in visiting order) of 50
// evenly spaced tuples at q = 0.3, in the full space and in subspace {0,2}.
func goldenBits(tr *Tree, db uncertain.DB) uint64 {
	h := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		for k := range b {
			b[k] = byte(v >> (8 * k))
		}
		h.Write(b[:])
	}
	for _, dims := range [][]int{nil, {0, 2}} {
		for _, tu := range db {
			put(math.Float64bits(tr.CrossSkyProb(tu, dims)))
		}
		for k := 0; k < 50; k++ {
			p := db[k*len(db)/50]
			tr.DominatedCandidates(p.Point, dims, p.ID, 0.3, func(m uncertain.SkylineMember) bool {
				put(uint64(m.Tuple.ID))
				put(math.Float64bits(m.Prob))
				return true
			})
		}
	}
	return h.Sum64()
}
