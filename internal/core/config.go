package core

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/transcript"
	"repro/internal/site"
	"repro/internal/transport"
	"repro/internal/uncertain"
)

// ClusterConfig is the one place to describe a cluster: where the sites
// are (in-process partitions or remote TCP daemons), the data
// dimensionality, transport behaviour (retry budget), and the one place a
// coordinator's observers attach (Logger, Metrics, FlightRecorder,
// TranscriptDir). Open validates it and builds the Cluster.
type ClusterConfig struct {
	// Partitions runs one in-process site engine per partition. Exactly
	// one of Partitions or Addrs must be set.
	Partitions []uncertain.DB
	// Addrs connects to already-running TCP site daemons (cmd/dsud-site).
	Addrs []string

	// Dims is the data dimensionality (required, > 0).
	Dims int

	// Latency adds a simulated round-trip delay to in-process sites, for
	// studying progressiveness in the time domain: one sleep in front of
	// each fan-out, after which every call of it is in flight together.
	// In-process sites then answer one after another on the caller's
	// goroutine, so a fan-out costs one Latency plus its sites' summed
	// service time.
	Latency time.Duration

	// RetryAttempts, when >= 1, wraps each remote connection in the
	// redialling retry transport: connections are dialled lazily,
	// requests carry sequence numbers (exactly-once at the sites via
	// dedup), and a broken connection is redialled and the request
	// re-sent up to RetryAttempts times. Zero disables the wrapper and
	// dials eagerly.
	RetryAttempts int

	// Logger, when set, receives one structured record per query (Info
	// on completion, Warn past Options.SlowQuery, Error on failure),
	// correlated with site logs by query_id. A Cluster.Watch logs its
	// sites' poll failures and recoveries there.
	Logger *slog.Logger
	// Metrics, when set, instruments the cluster against the registry:
	// every call to a site is timed and counted by outcome (dsud_rpc_*),
	// the bandwidth meter is exposed (dsud_transport_*) and completed
	// queries are counted per algorithm (dsud_queries_total). A Server the
	// cluster builds reports there too (dsud_serve_*, dsud_update_*).
	Metrics *obs.Registry
	// FlightRecorder, when set, receives one record per completed query:
	// its outcome and costs, its delivery curve and its transcript's path
	// (mount its Handler at /debug/flightz).
	FlightRecorder *flight.Recorder

	// TranscriptDir, when set, enables the black-box recorder: a query
	// run with Options.Record has its complete coordinator↔site exchange
	// written there as a replayable .dstr file (cmd/dsud-replay consumes
	// them).
	TranscriptDir string
}

// ErrConfig reports an invalid ClusterConfig.
var ErrConfig = errors.New("core: invalid cluster config")

// Open builds a Cluster from cfg; NewClusterFromClients is the only other
// constructor, for pre-built clients. Remote connections pipeline requests over one framed connection per site, so
// one Cluster serves many concurrent Query calls without head-of-line
// blocking.
func Open(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Dims <= 0 {
		return nil, fmt.Errorf("%w: Dims must be positive, got %d", ErrConfig, cfg.Dims)
	}
	switch {
	case len(cfg.Partitions) > 0 && len(cfg.Addrs) > 0:
		return nil, fmt.Errorf("%w: set Partitions or Addrs, not both", ErrConfig)
	case len(cfg.Partitions) == 0 && len(cfg.Addrs) == 0:
		return nil, ErrNoSites
	}

	meter := &transport.Meter{}
	var clients []transport.Client
	if len(cfg.Partitions) > 0 {
		clients = make([]transport.Client, len(cfg.Partitions))
		for i, part := range cfg.Partitions {
			if err := part.Validate(cfg.Dims); err != nil {
				return nil, fmt.Errorf("core: partition %d: %w", i, err)
			}
			clients[i] = transport.Local(site.New(i, part, cfg.Dims, 0))
		}
	} else {
		clients = make([]transport.Client, 0, len(cfg.Addrs))
		for _, addr := range cfg.Addrs {
			if cfg.RetryAttempts >= 1 {
				addr := addr
				clients = append(clients, transport.Retry(func() (transport.Client, error) {
					return transport.DialAuto(addr, meter)
				}, cfg.RetryAttempts))
				continue
			}
			c, err := transport.DialAuto(addr, meter)
			if err != nil {
				for _, open := range clients {
					open.Close()
				}
				return nil, err
			}
			clients = append(clients, c)
		}
	}

	cluster := newCluster(clients, meter, cfg.Dims)
	cluster.latency = cfg.Latency
	cluster.logger = cfg.Logger
	cluster.flight = cfg.FlightRecorder
	cluster.instrument(cfg.Metrics)
	if cfg.TranscriptDir != "" {
		cluster.transcripts = transcript.NewSink(cfg.TranscriptDir)
	}
	return cluster, nil
}

// Query executes one distributed skyline query against the cluster; it
// is the method form of Run and the primary entry point. Clusters are
// safe for many concurrent Query calls: each gets its own site
// sessions, its own bandwidth accounting, and its requests pipeline
// over the shared site connections.
func (c *Cluster) Query(ctx context.Context, opts Options) (*Report, error) {
	return Run(ctx, c, opts)
}
