package dsq

import (
	"context"

	"repro/internal/core"
)

// Cluster construction, querying and serving. Connect is the single
// constructor; Cluster.Query runs one protocol round per call and
// returns its Report; Cluster.Serve materializes the answer once,
// keeps it current under the inserts and deletes routed through the
// Server, and serves reads from it (docs/SERVING.md).
//
// The constructors that predate Connect, the free query functions and
// the per-query stats methods have been removed; see docs/SERVING.md
// "Migrating from the deprecated API" for the one-line replacements.

type (
	// Cluster is a handle to a set of sites (in-process or remote). One
	// Cluster safely serves many concurrent Query calls: each query gets
	// its own site sessions and its own exact bandwidth accounting, and
	// over TCP the requests of concurrent queries pipeline on one
	// multiplexed connection per site.
	Cluster = core.Cluster
	// ClusterConfig describes a cluster for Connect: where the sites are
	// (in-process Partitions or remote TCP Addrs — exactly one), the data
	// dimensionality, transport behaviour (RetryAttempts) and
	// observability attachments (Logger, Metrics, FlightRecorder).
	ClusterConfig = core.ClusterConfig

	// Server answers queries from a coordinator-side materialized global
	// skyline: one protocol round builds a sorted P_g-sky index, its
	// Insert and Delete keep it positioned (§5.4), and a read with
	// threshold q becomes an O(answer) sorted-prefix scan. Built by
	// Cluster.Serve; see docs/SERVING.md.
	Server = core.Server
	// ServeConfig configures Cluster.Serve: the materialization floor
	// threshold, subspace, refresh algorithm and replica switch. A
	// Server reports on its cluster's registry (ClusterConfig.Metrics).
	ServeConfig = core.ServeConfig
	// ServeStats snapshots the serving tier's hit/miss/refresh/coalesce
	// counters and store state (Server.Stats; the dsud_serve_* series on
	// the cluster's registry carry the same figures).
	ServeStats = core.ServeStats
	// Mode selects how a query's answer is produced (Options.Mode):
	// a full protocol round, a materialized read, or automatic routing.
	Mode = core.Mode
	// Source records on a Report how its answer was produced.
	Source = core.Source
)

// Query modes (Options.Mode) and answer sources (Report.Source).
const (
	// ModeProtocol (the default) runs a full distributed protocol round.
	ModeProtocol = core.ModeProtocol
	// ModeMaterialized answers from a Server's materialized skyline only,
	// failing with ErrUncovered when the materialization cannot cover the
	// query.
	ModeMaterialized = core.ModeMaterialized
	// ModeAuto serves from the materialization when covered and valid,
	// and falls back to a protocol round otherwise.
	ModeAuto = core.ModeAuto

	// SourceProtocol: a full protocol round produced the answer.
	SourceProtocol = core.SourceProtocol
	// SourceMaterialized: a sorted-prefix read of the materialized
	// skyline produced the answer; Report.Bandwidth is zero.
	SourceMaterialized = core.SourceMaterialized
	// SourceRefreshed: a materialized read that first waited on a
	// (possibly coalesced) refresh round.
	SourceRefreshed = core.SourceRefreshed
)

// Errors surfaced by the query entry points; match with errors.Is.
var (
	// ErrConfig reports an invalid ClusterConfig passed to Connect.
	ErrConfig = core.ErrConfig
	// ErrThreshold reports a query threshold outside (0,1].
	ErrThreshold = core.ErrThreshold
	// ErrSubspace reports an invalid Options.Dims subspace.
	ErrSubspace = core.ErrSubspace
	// ErrAlgorithm reports an unknown or unsupported Options.Algorithm.
	ErrAlgorithm = core.ErrAlgorithm
	// ErrResultLimit reports invalid MaxResults/TopK settings.
	ErrResultLimit = core.ErrResultLimit
	// ErrMode reports an unknown Options.Mode.
	ErrMode = core.ErrMode
	// ErrNilContext reports a nil ctx passed to a query entry point.
	ErrNilContext = core.ErrNilContext
	// ErrNoServer reports a ModeMaterialized/ModeAuto query issued
	// against a bare Cluster — build a Server with Cluster.Serve.
	ErrNoServer = core.ErrNoServer
	// ErrUncovered reports a ModeMaterialized query outside the
	// materialization's floor threshold or subspace.
	ErrUncovered = core.ErrUncovered
)

// Connect validates cfg and builds the cluster: one in-process site
// engine per cfg.Partitions entry, or one TCP connection per cfg.Addrs
// daemon, over which concurrent queries pipeline. Close the cluster when
// done.
func Connect(cfg ClusterConfig) (*Cluster, error) {
	return core.Open(cfg)
}

// QueryPartitions is a convenience one-shot: build an in-process cluster
// over parts, run the query, and tear the cluster down.
func QueryPartitions(ctx context.Context, parts []DB, dims int, opts Options) (*Report, error) {
	cluster, err := Connect(ClusterConfig{Partitions: parts, Dims: dims})
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	return cluster.Query(ctx, opts)
}
