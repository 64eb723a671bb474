package core

import (
	"slices"
	"sync"

	"repro/internal/msg"
)

// summaries is the coordinator's cache of the sites' summaries
// (msg.Summary): per site, one flat summary per subspace set queried, at
// the site version it describes. A query's Init asks with the cached
// version and the site ships a summary only when its own differs; the
// coordinator's own inserts and deletes keep the cache current between
// queries (updated), so a maintained answer's reads never refetch. An
// entry is indexed when it is first routed by and keeps its index until it
// changes or goes (indexed).
type summaries struct {
	mu    sync.Mutex
	sites [][]summary
}

// summary is one cached summary: the subspace in ascending order (nil:
// the full space), the site version it was taken at and, once built, its
// index, whose points are the summary's (in the index's order).
type summary struct {
	dims    []int
	version uint64
	msg.Summary
	index *msg.Index
}

// maxSummaries bounds the subspaces cached per site; beyond it the least
// recently stored makes room.
const maxSummaries = 8

func newSummaries(sites int) *summaries { return &summaries{sites: make([][]summary, sites)} }

// sortedDims is dims in ascending order, the key of a subspace set.
func sortedDims(dims []int) []int {
	if dims == nil {
		return nil
	}
	dims = slices.Clone(dims)
	slices.Sort(dims)
	return dims
}

// get returns site's cached summary on dims (sorted), zero when none.
func (c *summaries) get(site int, dims []int) summary {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.sites[site] {
		if slices.Equal(s.dims, dims) {
			return s
		}
	}
	return summary{}
}

// indexed returns the index of site's cached summary on dims (sorted),
// which the entry keeps: so each cached (site, subspace, version) is
// indexed once, when a query or an update first routes by it. With
// version nonzero only an entry at that version answers; nil when none
// does.
func (c *summaries) indexed(site int, dims []int, version uint64) *msg.Index {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k := range c.sites[site] {
		s := &c.sites[site][k]
		if !slices.Equal(s.dims, dims) || version != 0 && s.version != version {
			continue
		}
		if s.index == nil {
			if s.index = s.Index(); s.index != nil {
				s.Summary = s.index.Summary // one copy of the points, not two
			}
		}
		return s.index
	}
	return nil
}

// put caches what an Init reply shipped: site's summary on dims (sorted)
// at version.
func (c *summaries) put(site int, dims []int, version uint64, sum msg.Summary) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cached := slices.DeleteFunc(c.sites[site], func(s summary) bool { return slices.Equal(s.dims, dims) })
	if len(cached) >= maxSummaries {
		cached = slices.Delete(cached, 0, 1)
	}
	c.sites[site] = append(cached, summary{dims: dims, version: version, Summary: sum})
}

// updated folds one of the coordinator's own updates at site into its
// cached summaries, given the version the site's reply names. When that is
// the next version after a summary's, the update is the only change the
// site saw since: an insert adds its point (msg.Summary.With), and a
// delete keeps the set, since a point that left only costs a message and
// every tuple the deleted one dominated is dominated by it still. Any other
// version means changes the cache did not see, and the summary goes; the
// next Init refetches it.
func (c *summaries) updated(site int, req *msg.Request, version uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cached := c.sites[site][:0]
	for _, s := range c.sites[site] {
		if s.version+1 != version {
			continue
		}
		if req.Kind == msg.KindInsert {
			// With hands back the summary itself when a point covers the
			// insert; then the set, and so the index, stay.
			if grown := s.With(req.Tuple.Point, s.dims); len(grown.Coords) != len(s.Coords) || &grown.Coords[0] != &s.Coords[0] {
				s.Summary, s.index = grown, nil
			}
		}
		s.version = version
		cached = append(cached, s)
	}
	clear(c.sites[site][len(cached):])
	c.sites[site] = cached
}
