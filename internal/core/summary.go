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
// queries (updated), so a maintained answer's reads never refetch.
type summaries struct {
	mu    sync.Mutex
	sites [][]summary
}

// summary is one cached summary: the subspace in ascending order (nil:
// the full space) and the site version it was taken at.
type summary struct {
	dims    []int
	version uint64
	msg.Summary
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
			s.Summary = s.With(req.Tuple.Point, s.dims)
		}
		s.version = version
		cached = append(cached, s)
	}
	clear(c.sites[site][len(cached):])
	c.sites[site] = cached
}
