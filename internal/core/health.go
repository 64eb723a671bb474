package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/msg"
	"repro/internal/uncertain"
)

// SiteHealth is one site's health-probe outcome: either a status
// snapshot or the error that prevented one. A site running a build that
// predates KindStatus answers with an unknown-kind error, which shows up
// here as Err — degraded visibility, not a cluster failure.
type SiteHealth struct {
	Site   int
	Status *msg.SiteStatus
	Err    error
}

// Healthy reports whether the probe got a status back.
func (h SiteHealth) Healthy() bool { return h.Err == nil && h.Status != nil }

// Health probes every site with KindStatus in parallel and returns one
// entry per site, in site order. Unlike query broadcasts, one dead site
// does not fail the sweep — its entry carries the error and the rest
// report normally. The sweep waits on every probe under ctx, so a caller
// that must not hang on a site that never answers bounds ctx.
func (c *Cluster) Health(ctx context.Context) []SiteHealth {
	out := make([]SiteHealth, len(c.clients))
	probe := view{cluster: c} // no meter, trace or transcript of its own
	var wg sync.WaitGroup
	for i := range c.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i].Site = i
			resp, err := probe.rpc(ctx, i, &msg.Request{Kind: msg.KindStatus})
			if err != nil {
				out[i].Err = err
				return
			}
			if resp.Status == nil {
				out[i].Err = fmt.Errorf("core: site %d returned no status (pre-health build?)", i)
				return
			}
			out[i].Status = resp.Status
		}(i)
	}
	wg.Wait()
	return out
}

// Partitions fetches every site's full partition (KindShipAll) and
// returns the union plus each tuple's home site. This is the online
// auditor's oracle input; it costs one baseline-query's worth of
// bandwidth, which is why audits are sampled.
func (c *Cluster) Partitions(ctx context.Context) (uncertain.DB, map[uncertain.TupleID]int, error) {
	v := c.newView(nil, 0, msg.Query{})
	resps, err := v.send(ctx, -1, msg.Request{Kind: msg.KindShipAll})
	if err != nil {
		return nil, nil, err
	}
	var union uncertain.DB
	homes := make(map[uncertain.TupleID]int)
	for i, resp := range resps {
		for _, rep := range resp.Tuples {
			union = append(union, rep.Tuple)
			homes[rep.Tuple.ID] = i
		}
	}
	return union, homes, nil
}
