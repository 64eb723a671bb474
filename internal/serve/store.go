// Package serve holds the coordinator-side materialized global skyline:
// every answer tuple with its exact global skyline probability P_g-sky
// (eq. 4/5), kept sorted by descending probability so a query with
// threshold q is a sorted-prefix read — O(answer), no protocol round.
//
// The store is the maintained answer itself, not a copy of it:
// core.Server owns one, installs every refresh round's answer wholesale
// (Replace), edits it in place per incremental update (Apply) and serves
// its reads from that same instance. Every mutation bumps one version
// counter; readers take a consistent snapshot under an RLock. The store
// is fresh exactly when it is Valid: it tracks an invalidation mark, which
// the Server sets when an update fails or sites changed out-of-band, and
// the wall-clock of the last wholesale refresh, which it only reports.
package serve

import (
	"slices"
	"sync"
	"time"

	"repro/internal/uncertain"
)

// Entry is one materialized answer member: the tuple with its exact
// global skyline probability, plus the home site recorded so served
// results carry the same provenance a protocol round reports, and the
// tuple's local skyline probability at that site, P_sky(t, D_home),
// which a read resuming from the store carries to the other sites as
// the member's Observation-2 bound.
type Entry struct {
	Member uncertain.SkylineMember
	Site   int
	Local  float64
}

// compare is the protocol's report order (uncertain.CompareMembers).
func compare(a, b Entry) int { return uncertain.CompareMembers(a.Member, b.Member) }

// Store is the materialized skyline index. Safe for concurrent use:
// many Prefix readers proceed in parallel; Apply/Replace writers are
// serialised.
//
// Apply and Replace never write into a published entries slice: each
// builds a new one and swaps it in (copy-on-write). That is what lets
// Entries hand the writer the current slice without copying it, and it
// must stay true.
type Store struct {
	mu        sync.RWMutex
	entries   []Entry                        // sorted by compare; never mutated once published
	ids       map[uncertain.TupleID]struct{} // the IDs in entries, for Has
	version   uint64
	floor     float64 // materialization threshold q0
	refreshed time.Time
	invalid   bool
}

// New returns an empty store materialized at threshold floor: the store
// can answer any query whose threshold is >= floor (Covers).
func New(floor float64) *Store {
	return &Store{floor: floor, ids: map[uncertain.TupleID]struct{}{}}
}

// Floor returns the materialization threshold q0.
func (s *Store) Floor() float64 { return s.floor }

// Covers reports whether a query with threshold q is answerable from
// the materialization: the store holds every tuple with P_g-sky >=
// floor, so any q >= floor is a prefix of it.
func (s *Store) Covers(q float64) bool { return q >= s.floor }

// Version returns the current version counter. Every Replace and every
// non-empty Apply bumps it; a reader that saw version v observed every
// mutation up to v.
func (s *Store) Version() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.version
}

// Len returns the number of materialized entries.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entries)
}

// LastRefresh returns the wall-clock of the last wholesale Replace.
// Incremental Apply calls do not reset it: they keep the index exact for
// changes that flowed through the Server.
func (s *Store) LastRefresh() time.Time {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.refreshed
}

// Invalidate marks the materialization stale: Valid reports false until
// the next Replace. Use it when sites were updated out-of-band (bypassing
// the Server's updates).
func (s *Store) Invalidate() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.invalid = true
	s.version++
}

// Valid reports whether the store has not been invalidated since its
// last Replace.
func (s *Store) Valid() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return !s.invalid
}

// Replace installs a complete new answer (one protocol/refresh round's
// output), re-sorts it, clears any invalidation, stamps the refresh
// clock and bumps the version.
func (s *Store) Replace(entries []Entry, now time.Time) {
	sorted := make([]Entry, len(entries))
	copy(sorted, entries)
	slices.SortFunc(sorted, compare)
	ids := make(map[uncertain.TupleID]struct{}, len(sorted))
	for _, e := range sorted {
		ids[e.Member.Tuple.ID] = struct{}{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries, s.ids = sorted, ids
	s.refreshed = now
	s.invalid = false
	s.version++
}

// Apply folds one incremental update into the index: removed tuples
// leave, upserted tuples are re-scored and repositioned at their sorted
// rank. The version bumps once per call with any effect.
func (s *Store) Apply(upserts []Entry, removed []uncertain.TupleID) {
	if len(upserts) == 0 && len(removed) == 0 {
		return
	}
	drop := make(map[uncertain.TupleID]bool, len(upserts)+len(removed))
	for _, id := range removed {
		drop[id] = true
	}
	for _, e := range upserts {
		drop[e.Member.Tuple.ID] = true // old position leaves before re-insert
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	next := make([]Entry, 0, len(s.entries)+len(upserts))
	for _, e := range s.entries {
		if !drop[e.Member.Tuple.ID] {
			next = append(next, e)
		}
	}
	for _, id := range removed {
		delete(s.ids, id)
	}
	for _, e := range upserts {
		at, _ := slices.BinarySearchFunc(next, e, compare)
		next = slices.Insert(next, at, e)
		s.ids[e.Member.Tuple.ID] = struct{}{}
	}
	s.entries = next
	s.version++
}

// Has reports whether tuple id is in the store.
func (s *Store) Has(id uncertain.TupleID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.ids[id]
	return ok
}

// Entries returns the current entries in report order, without copying:
// the slice is shared and read-only. Because writers never modify a
// published slice, it stays the snapshot of the version it was read at
// while later mutations swap in new ones.
func (s *Store) Entries() []Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.entries
}

// Prefix returns a copy of every entry with probability >= q, in report
// order, together with the version the read observed. q below the
// materialization floor returns a prefix that may be incomplete —
// callers gate on Covers first.
func (s *Store) Prefix(q float64) ([]Entry, uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	cut := uncertain.PrefixCut(len(s.entries), q, func(i int) float64 { return s.entries[i].Member.Prob })
	out := make([]Entry, cut)
	copy(out, s.entries[:cut])
	return out, s.version
}
