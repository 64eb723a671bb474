package transport

import (
	"sync/atomic"
	"time"

	"repro/internal/msg"
	"repro/internal/obs"
)

// Meter accumulates the paper's communication metrics. Bandwidth is
// measured in tuples transmitted (§3.2: synchronisation messages and
// headers are excluded); message and byte counts are kept as secondary
// diagnostics. Meter is safe for concurrent use and its zero value is
// ready.
type Meter struct {
	tuplesUp   atomic.Int64 // site → coordinator
	tuplesDown atomic.Int64 // coordinator → site
	messages   atomic.Int64
	bytes      atomic.Int64
}

// Snapshot is a point-in-time copy of a Meter.
type Snapshot struct {
	// TuplesUp counts tuples shipped from sites to the coordinator
	// (representatives, baseline partitions, promotion candidates).
	TuplesUp int64
	// TuplesDown counts tuples shipped from the coordinator to sites
	// (feedback broadcasts, update notifications).
	TuplesDown int64
	// Messages counts protocol round trips.
	Messages int64
	// Bytes counts wire bytes where the transport can observe them (TCP);
	// zero for the in-process transport.
	Bytes int64
}

// Tuples is the paper's headline bandwidth metric: total tuples
// transmitted in either direction.
func (s Snapshot) Tuples() int64 { return s.TuplesUp + s.TuplesDown }

// Sub returns the delta s − earlier, for measuring a phase.
func (s Snapshot) Sub(earlier Snapshot) Snapshot {
	return Snapshot{
		TuplesUp:   s.TuplesUp - earlier.TuplesUp,
		TuplesDown: s.TuplesDown - earlier.TuplesDown,
		Messages:   s.Messages - earlier.Messages,
		Bytes:      s.Bytes - earlier.Bytes,
	}
}

// Snapshot returns the current counter values.
func (m *Meter) Snapshot() Snapshot {
	return Snapshot{
		TuplesUp:   m.tuplesUp.Load(),
		TuplesDown: m.tuplesDown.Load(),
		Messages:   m.messages.Load(),
		Bytes:      m.bytes.Load(),
	}
}

// Reset zeroes all counters.
func (m *Meter) Reset() {
	m.tuplesUp.Store(0)
	m.tuplesDown.Store(0)
	m.messages.Store(0)
	m.bytes.Store(0)
}

// AddBytes records transport-observed wire bytes.
func (m *Meter) AddBytes(n int64) { m.bytes.Add(n) }

// Account records the tuple and message cost of one completed call. The
// rules implement the paper's accounting exactly:
//
//   - every Representative returned by Init/Next, or by an Evaluate that
//     carries a refill, costs one up-tuple, and so does every point of a
//     summary an Init reply ships (one the coordinator already held, at
//     the version it asked with, is free);
//   - a resumed query's Init ships the known answer homed elsewhere down,
//     one down-tuple per member it carries; the IDs of the known members
//     homed at the site ride free, like replica evictions;
//   - every Evaluate request ships its feedback tuple down (one per site
//     contacted, so a broadcast routed to k sites costs k), and a Next or
//     Evaluate ships each feedback it carries for the site to prune by,
//     or each candidate of a maintenance batch, one down-tuple each;
//   - ShipAll, Candidates and Delete responses cost one up-tuple per tuple
//     they carry (the partition, the promotion candidates);
//   - Insert/Delete requests ship one tuple of update traffic down only
//     when they originate remotely (the caller decides whether to meter
//     the call), and so does the deletion notice of Candidates;
//   - probability scalars, prune counts and sizes ride for free, like the
//     paper's headers.
func (m *Meter) Account(req *msg.Request, resp *msg.Response) {
	m.messages.Add(1)
	switch req.Kind {
	case msg.KindInit, msg.KindNext:
		m.tuplesDown.Add(int64(len(req.Tuples)))
		if resp != nil && !resp.Exhausted {
			m.tuplesUp.Add(1)
		}
		if resp != nil && resp.Version != req.SummaryVersion {
			m.tuplesUp.Add(int64(resp.Summary.Len()))
		}
	case msg.KindEvaluate:
		down := len(req.Tuples) // a batch's candidates, or carried feedback
		if down == 0 || req.HasFeed() {
			down++
		}
		m.tuplesDown.Add(int64(down))
		if req.Refill && resp != nil && !resp.Exhausted {
			m.tuplesUp.Add(1)
		}
	case msg.KindShipAll, msg.KindCandidates, msg.KindDelete:
		if resp != nil {
			m.tuplesUp.Add(int64(len(resp.Tuples)))
		}
		if req.Kind != msg.KindShipAll {
			m.tuplesDown.Add(1)
		}
	case msg.KindInsert:
		m.tuplesDown.Add(1)
	case msg.KindReplicate:
		// Replica adds travel downstream as whole tuples; removals are
		// IDs and ride free like headers.
		m.tuplesDown.Add(int64(len(req.Tuples)))
	}
}

// ExposeMeter registers the meter's counters with reg under the paper's
// bandwidth vocabulary. Values are read live at scrape time, so one
// registration covers the meter's whole lifetime (including Reset).
// Nil-safe in both arguments.
func ExposeMeter(reg *obs.Registry, m *Meter) {
	if reg == nil || m == nil {
		return
	}
	reg.Describe(
		"dsud_transport_tuples_up_total", "Tuples shipped from sites to the coordinator (the paper's up-bandwidth).",
		"dsud_transport_tuples_down_total", "Tuples shipped from the coordinator to sites (feedback broadcasts, updates).",
		"dsud_transport_messages_total", "Protocol round trips.",
		"dsud_transport_bytes_total", "Wire bytes where the transport can observe them (TCP only).",
	)
	reg.CounterFunc("dsud_transport_tuples_up_total", func() float64 { return float64(m.Snapshot().TuplesUp) })
	reg.CounterFunc("dsud_transport_tuples_down_total", func() float64 { return float64(m.Snapshot().TuplesDown) })
	reg.CounterFunc("dsud_transport_messages_total", func() float64 { return float64(m.Snapshot().Messages) })
	reg.CounterFunc("dsud_transport_bytes_total", func() float64 { return float64(m.Snapshot().Bytes) })
}

// RPCMetrics are one site's dsud_rpc_* series, indexed by Kind: the
// round-trip latency of each call and its count by outcome.
type RPCMetrics struct {
	latency [msg.MaxKind + 1]*obs.Histogram
	ok, err [msg.MaxKind + 1]*obs.Counter
}

// NewRPCMetrics resolves site's series in reg for every Kind 1..MaxKind;
// resolving them again yields the same series, so no call counts twice.
func NewRPCMetrics(reg *obs.Registry, site string) *RPCMetrics {
	reg.Describe(
		"dsud_rpc_requests_total", "Protocol requests by site, kind and outcome.",
		"dsud_rpc_duration_seconds", "Round-trip latency of protocol requests by site and kind.",
	)
	m := &RPCMetrics{}
	for k := 1; k <= msg.MaxKind; k++ {
		kind := msg.Kind(k).String()
		m.latency[k] = reg.Histogram("dsud_rpc_duration_seconds", nil, "site", site, "kind", kind)
		m.ok[k] = reg.Counter("dsud_rpc_requests_total", "site", site, "kind", kind, "outcome", "ok")
		m.err[k] = reg.Counter("dsud_rpc_requests_total", "site", site, "kind", kind, "outcome", "error")
	}
	return m
}

// Observe records one call of kind k that took d and failed when err is
// not nil. A kind outside 1..MaxKind has no series and is not recorded.
func (m *RPCMetrics) Observe(k msg.Kind, d time.Duration, err error) {
	if k < 1 || int(k) > msg.MaxKind {
		return
	}
	m.latency[k].Observe(d.Seconds())
	if err != nil {
		m.err[k].Inc()
	} else {
		m.ok[k].Inc()
	}
}
