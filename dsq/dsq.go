// Package dsq is the public API for distributed skyline queries over
// uncertain data, implementing the DSUD and e-DSUD algorithms of Ding & Jin
// (ICDCS 2010 / TKDE 2011).
//
// # Model
//
// An uncertain database is a set of tuples; each Tuple carries a point in
// d-dimensional space (smaller is better on every attribute) and an
// existential probability in (0,1]. The database is horizontally
// partitioned over m sites. A query with threshold q reports every tuple
// whose global skyline probability — the probability the tuple exists and
// no existing tuple dominates it — is at least q, while transmitting as few
// tuples as possible between the sites and the coordinator.
//
// # Quick start
//
//	parts := []dsq.DB{site0Tuples, site1Tuples, site2Tuples}
//	cluster, err := dsq.Connect(dsq.ClusterConfig{Partitions: parts, Dims: 2})
//	if err != nil { ... }
//	defer cluster.Close()
//	report, err := cluster.Query(ctx, dsq.Options{Threshold: 0.3})
//	for _, m := range report.Skyline {
//		fmt.Println(m.Tuple, m.Prob)
//	}
//
// Connect and Cluster.Query are the two entry points: Connect builds a
// cluster from one ClusterConfig (in-process partitions or remote TCP
// daemons, retry budget, observability attachments), and Query runs one
// query against it. Clusters serve many concurrent Query calls; over TCP
// the connections speak a multiplexed wire protocol so concurrent queries
// pipeline on one connection per site (see docs/TRANSPORT.md).
//
// Results stream progressively through Options.OnResult, and
// Report.Bandwidth exposes the communication cost in tuples, messages and
// (over TCP) bytes.
//
// # Surface
//
// The API is split by concern:
//
//   - cluster.go: building clusters (Connect, ClusterConfig), running
//     queries (Cluster.Query) and serving a maintained answer
//     (Cluster.Serve).
//   - workload.go: synthetic workload generation and partitioning (§7 of
//     the paper), vertical partitioning, and sliding-window streams.
//   - observe.go: traces, metrics, structured logs, flight recording,
//     online auditing and cluster health.
//
// This file holds the data model and the centralised reference
// computations.
package dsq

import (
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/uncertain"
)

// Core data model. These alias the engine's own types, so values flow
// through the API without conversion.
type (
	// Point is a location in d-dimensional attribute space; lower values
	// are preferred on every dimension.
	Point = geom.Point
	// TupleID uniquely identifies a tuple across all sites.
	TupleID = uncertain.TupleID
	// Tuple is one uncertain record: a point plus the probability that
	// the record truly exists.
	Tuple = uncertain.Tuple
	// DB is an uncertain database (one site's partition, or a union).
	DB = uncertain.DB
	// SkylineMember is one answer entry: a tuple and its exact global
	// skyline probability.
	SkylineMember = uncertain.SkylineMember
)

// Query configuration and results.
type (
	// Algorithm selects Baseline, DSUD or EDSUD.
	Algorithm = core.Algorithm
	// Options configures a query: threshold, optional subspace, algorithm
	// and the progressive-result callback.
	Options = core.Options
	// Result is one progressively delivered skyline tuple.
	Result = core.Result
	// Report is the one record of a completed query: its query ID and
	// algorithm, the answer, bandwidth, iteration counters, one
	// DeliveryPoint per reported tuple and the delivery curve.
	Report = core.Report
)

// Algorithms.
const (
	// Baseline ships every partition to the coordinator (§3.2 of the
	// paper) — the correctness reference and cost ceiling.
	Baseline = core.Baseline
	// DSUD is the iterative representative-streaming protocol (§5.1).
	DSUD = core.DSUD
	// EDSUD adds the approximate-bound feedback mechanism (§5.2); it is
	// the default and the recommended algorithm.
	EDSUD = core.EDSUD
)

// SkylineProbability computes the exact skyline probability of tuple t
// against db (eq. 3 of the paper) — a convenience for small, centralised
// checks and tests.
func SkylineProbability(t Tuple, db DB, dims []int) float64 {
	return db.SkyProb(t, dims)
}

// CentralSkyline computes the probabilistic skyline of a single database
// by brute force — the centralised special case of the query.
func CentralSkyline(db DB, threshold float64, dims []int) []SkylineMember {
	return db.Skyline(threshold, dims)
}
