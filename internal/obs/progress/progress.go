// Package progress records each query's progressive delivery curve —
// the monotone (time, k) series of skyline results reaching the client —
// as a fixed-size Digest. The curve is the observable form of the
// paper's headline claim: DSUD/e-DSUD deliver results early and
// continuously rather than at round end (§6, Figs. 12–13), so the digest
// carries the two normalized progress AUCs those figures compare, plus
// time-to-k at log-spaced checkpoints for after-the-fact inspection.
// Every Report carries its digest, and the coordinator's flight record
// (internal/obs/flight) shares it, so /debug/flightz serves the curve
// beside the rest of the query's record.
//
// Design rules, mirroring internal/obs and internal/obs/flight:
//
//   - Nil-safe. Every method of a nil *Builder is a no-op.
//   - Allocation-free observation. Builder.Observe touches only
//     fixed-size fields (bounded checkpoint and per-site arrays), pinned
//     by TestObserveZeroAlloc.
//   - No dependencies beyond the standard library.
package progress

import "time"

// MaxPoints bounds the log-spaced delivery checkpoints per digest. The
// checkpoint ks grow geometrically (×1.25), so 48 slots cover result
// counts into the tens of thousands; the AUCs are computed over every
// delivery regardless.
const MaxPoints = 48

// MaxSites bounds the per-site delivered-result breakdown (mirrors
// flight.MaxSites). Beyond it the tail folds into the last slot and
// SitesTruncated is set; totals stay exact.
const MaxSites = 16

// Point is one checkpoint on the delivery curve: the K-th result arrived
// NS nanoseconds into the query, after Tuples cumulative tuples had
// crossed the wire.
type Point struct {
	K      int32 `json:"k,omitempty"`
	NS     int64 `json:"ns,omitempty"`
	Tuples int64 `json:"tuples,omitempty"`
}

// Digest is one query's delivery curve, all fixed-size. The query's
// identity (query_id, algorithm, threshold, start, duration) lives in the
// flight record that carries the digest, not here.
type Digest struct {
	// Results counts tuples delivered through the progressive stream
	// (under TopK this may exceed the truncated answer size).
	Results int32 `json:"results"`
	// TuplesTotal is the query's total tuple bandwidth B — the
	// normalizer of AUCBandwidth.
	TuplesTotal int64 `json:"tuples_total,omitempty"`

	// AUCTime is the normalized area under k(t)/K over [0, Elapsed]:
	// Σᵢ (T − tᵢ) / (K·T). 1.0 means every result arrived instantly;
	// 0 means everything arrived at the end (or nothing arrived).
	AUCTime float64 `json:"auc_time"`
	// AUCBandwidth is the same area over the bandwidth axis,
	// Σᵢ (B − bᵢ) / (K·B) with bᵢ the cumulative tuples at the i-th
	// delivery. Unlike AUCTime it is count-based, hence deterministic
	// for a fixed workload — the regression-gating metric.
	AUCBandwidth float64 `json:"auc_bandwidth"`
	// TTFirstNS / TTLastNS are time-to-first and time-to-last delivery.
	TTFirstNS int64 `json:"ttf_ns,omitempty"`
	TTLastNS  int64 `json:"ttl_ns,omitempty"`

	// Points holds the first NumPoints log-spaced checkpoints (k = 1 is
	// always present, as is the final delivery).
	Points    [MaxPoints]Point `json:"points"`
	NumPoints int32            `json:"num_points,omitempty"`

	// PerSite counts delivered results by home-site index; Sites is the
	// cluster size. Beyond MaxSites the tail folds into the last slot.
	PerSite        [MaxSites]int32 `json:"per_site"`
	Sites          int32           `json:"sites,omitempty"`
	SitesTruncated bool            `json:"sites_truncated,omitempty"`
}

// Checkpoints returns the recorded curve points, oldest first, as a
// slice into d. Nil-safe.
func (d *Digest) Checkpoints() []Point {
	if d == nil {
		return nil
	}
	n := int(d.NumPoints)
	if n < 0 || n > MaxPoints {
		n = 0
	}
	return d.Points[:n]
}

// Builder accumulates one query's curve. The zero value is ready; call
// Observe once per delivered result and Finish once at query end. Not
// safe for concurrent use (a query's result stream is sequential).
type Builder struct {
	n       int32
	np      int32
	nextK   int32
	sumT    float64 // Σ tᵢ (ns) over all deliveries, for the exact AUC
	sumB    float64 // Σ bᵢ (tuples) over all deliveries
	firstNS int64
	last    Point
	points  [MaxPoints]Point
	perSite [MaxSites]int32
	trunc   bool
}

// Reset clears the builder for reuse. Nil-safe.
func (b *Builder) Reset() {
	if b != nil {
		*b = Builder{}
	}
}

// Observe records one delivered result: its home site and its point on
// the curve (p.K is the 1-based delivery ordinal, p.NS the time since
// query start, p.Tuples the cumulative tuple bandwidth at that moment).
// Allocation-free (pinned by TestObserveZeroAlloc); nil-safe.
func (b *Builder) Observe(site int, p Point) {
	if b == nil {
		return
	}
	b.n = p.K
	if b.n == 1 {
		b.firstNS = p.NS
	}
	b.sumT += float64(p.NS)
	b.sumB += float64(p.Tuples)
	if site >= 0 {
		if site >= MaxSites {
			site = MaxSites - 1
			b.trunc = true
		}
		b.perSite[site]++
	}
	b.last = p
	if b.nextK == 0 {
		b.nextK = 1
	}
	if b.n == b.nextK && b.np < MaxPoints {
		b.points[b.np] = b.last
		b.np++
		next := b.nextK + b.nextK/4 // log-spaced ks, ×1.25 per step
		if next == b.nextK {
			next++
		}
		b.nextK = next
	}
}

// Results returns the number of deliveries observed so far. Nil-safe.
func (b *Builder) Results() int {
	if b == nil {
		return 0
	}
	return int(b.n)
}

// Finish computes the curve summary into d given the query's total
// duration and total tuple bandwidth. Sites is the caller's to fill. The
// final delivery is always kept as the last checkpoint. Nil-safe in both
// directions.
func (b *Builder) Finish(d *Digest, elapsed time.Duration, tuplesTotal int64) {
	if b == nil || d == nil {
		return
	}
	d.Results = b.n
	d.TuplesTotal = tuplesTotal
	d.PerSite = b.perSite
	d.SitesTruncated = b.trunc
	d.Points = b.points
	d.NumPoints = b.np
	if b.n == 0 {
		return
	}
	d.TTFirstNS = b.firstNS
	d.TTLastNS = b.last.NS
	// The final delivery anchors the curve even when it missed the
	// log-spaced grid; with the checkpoint array full it replaces the
	// last slot.
	if d.Points[d.NumPoints-1].K != b.last.K {
		if d.NumPoints < MaxPoints {
			d.NumPoints++
		}
		d.Points[d.NumPoints-1] = b.last
	}
	d.AUCTime = normalizedAUC(float64(b.n), b.sumT, float64(int64(elapsed)))
	d.AUCBandwidth = normalizedAUC(float64(b.n), b.sumB, float64(tuplesTotal))
}

// normalizedAUC is Σᵢ (total − xᵢ) / (n·total) given Σxᵢ, clamped to
// [0, 1] against cost-axis jitter (a delivery observed a hair after the
// final total was read).
func normalizedAUC(n, sum, total float64) float64 {
	if n <= 0 || total <= 0 {
		return 0
	}
	auc := (n*total - sum) / (n * total)
	if auc < 0 {
		return 0
	}
	if auc > 1 {
		return 1
	}
	return auc
}
