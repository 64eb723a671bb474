package prtree

import (
	"hash"
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
	checkGolden(t, goldenBits, map[int][2]uint64{ // capacity → {initial, after the script}
		0: {0xce5efe8108e6b814, 0xbce6dafb39b4594f},
		5: {0x7cd3e4ed7b129f6b, 0x248c7d601a6e5544},
	})
}

// TestLocalSkylineGoldenBits pins the threshold search the same way: the
// members LocalSkylineFunc streams (ID, probability bits and stream order)
// over the same seeded tree and script. Its constants were recorded on the
// kernel that computed every window product in full, so a threshold cut
// that changed a prune, a report or a reported bit shows up here.
func TestLocalSkylineGoldenBits(t *testing.T) {
	checkGolden(t, skylineBits, map[int][2]uint64{
		0: {0xb93bdbc49becffe4, 0x62ff887936e32e34},
		5: {0x029dd80f9fe1f873, 0xe27646d5fe4841e7},
	})
}

// checkGolden builds a seeded 5000-tuple tree at each capacity in want,
// hashes it with bits, runs a fixed script of 500 inserts and 500 deletes,
// and hashes it again.
func checkGolden(t *testing.T, bits func(*Tree, uncertain.DB) uint64, want map[int][2]uint64) {
	t.Helper()
	for capacity, w := range want {
		db := randomDB(rand.New(rand.NewSource(7)), 5000, 3)
		tr := Bulk(db, 3, capacity)
		live := db.Clone()
		if got := bits(tr, live); got != w[0] {
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
		if got := bits(tr, kept); got != w[1] {
			t.Errorf("capacity %d after script: bits %#x, want %#x", capacity, got, w[1])
		}
	}
}

// put writes v into h little-endian.
func put(h hash.Hash64, v uint64) {
	var b [8]byte
	for k := range b {
		b[k] = byte(v >> (8 * k))
	}
	h.Write(b[:])
}

// putMember hashes a reported member's ID and probability bits.
func putMember(h hash.Hash64, m uncertain.SkylineMember) bool {
	put(h, uint64(m.Tuple.ID))
	put(h, math.Float64bits(m.Prob))
	return true
}

// goldenBits hashes CrossSkyProb of every tuple in db and the
// DominatedCandidates members (ID and probability, in visiting order) of 50
// evenly spaced tuples at q = 0.3, in the full space and in subspace {0,2}.
func goldenBits(tr *Tree, db uncertain.DB) uint64 {
	h := fnv.New64a()
	for _, dims := range [][]int{nil, {0, 2}} {
		for _, tu := range db {
			put(h, math.Float64bits(tr.CrossSkyProb(tu, dims)))
		}
		for k := 0; k < 50; k++ {
			p := db[k*len(db)/50]
			tr.DominatedCandidates(p.Point, dims, p.ID, 0.3, func(m uncertain.SkylineMember) bool {
				return putMember(h, m)
			})
		}
	}
	return h.Sum64()
}

// skylineBits hashes LocalSkylineFunc's members in stream order at
// q ∈ {0.1, 0.25, 0.3, 0.6}, in the full space and in subspace {0,2}.
func skylineBits(tr *Tree, _ uncertain.DB) uint64 {
	h := fnv.New64a()
	for _, dims := range [][]int{nil, {0, 2}} {
		for _, q := range []float64{0.1, 0.25, 0.3, 0.6} {
			tr.LocalSkylineFunc(q, dims, func(m uncertain.SkylineMember) bool {
				return putMember(h, m)
			})
		}
	}
	return h.Sum64()
}
