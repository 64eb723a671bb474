package core

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/progress"
	"repro/internal/obs/transcript"
	"repro/internal/site"
	"repro/internal/transport"
	"repro/internal/uncertain"
)

// ClusterConfig is the one place to describe a cluster: where the sites
// are (in-process partitions or remote TCP daemons), the data
// dimensionality, transport behaviour (retry budget), and the
// observability attachments that previously required separate
// post-construction calls. Open validates it and builds the Cluster.
type ClusterConfig struct {
	// Partitions runs one in-process site engine per partition. Exactly
	// one of Partitions or Addrs must be set.
	Partitions []uncertain.DB
	// Addrs connects to already-running TCP site daemons (cmd/dsud-site).
	Addrs []string

	// Dims is the data dimensionality (required, > 0).
	Dims int

	// Capacity tunes the PR-tree fan-out of in-process sites (<4 =
	// default). Ignored for remote sites, which index at the daemon.
	Capacity int
	// Latency adds a simulated per-message round-trip delay to
	// in-process sites, for studying progressiveness in the time domain.
	Latency time.Duration

	// RetryAttempts, when >= 1, wraps each remote connection in the
	// redialling retry transport: connections are dialled lazily,
	// requests carry sequence numbers (exactly-once at the sites via
	// dedup), and a broken connection is redialled and the request
	// re-sent up to RetryAttempts times. Zero disables the wrapper and
	// dials eagerly.
	RetryAttempts int

	// Logger, when set, becomes the default query logger: every query
	// run without an Options.Logger of its own logs through it.
	Logger *slog.Logger
	// Metrics, when set, instruments the cluster against the registry
	// exactly like Cluster.Instrument.
	Metrics *obs.Registry
	// FlightRecorder, when set, receives one record per completed query
	// exactly like Cluster.SetFlightRecorder.
	FlightRecorder *flight.Recorder
	// ProgressLog, when set, retains each successful query's
	// delivery-curve digest exactly like Cluster.SetProgressLog (mount
	// its Handler at /queryz).
	ProgressLog *progress.Log

	// TranscriptDir, when set, enables the black-box recorder: sampled
	// queries (TranscriptSample) and forced ones (Options.Record) have
	// their complete coordinator↔site exchange written there as
	// replayable .dstr files (cmd/dsud-replay consumes them).
	TranscriptDir string
	// TranscriptSample is the fraction of queries recorded without being
	// forced (0 = on-demand only, 1 = every query).
	TranscriptSample float64
	// TranscriptLog, when set, retains a summary of each recording
	// (mount its Handler at /transcriptz). A log with no TranscriptDir
	// keeps summaries only and writes no files.
	TranscriptLog *transcript.Log
}

// ErrConfig reports an invalid ClusterConfig.
var ErrConfig = errors.New("core: invalid cluster config")

// Open builds a Cluster from cfg — the consolidated constructor behind
// NewLocalCluster, NewRemoteCluster and NewRemoteClusterRetry. Remote
// connections pipeline requests over one framed connection per site, so
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
			eng := site.New(i, part, cfg.Dims, cfg.Capacity)
			clients[i] = transport.Metered(transport.Delayed(transport.Local(eng), cfg.Latency), meter)
		}
	} else {
		clients = make([]transport.Client, 0, len(cfg.Addrs))
		for _, addr := range cfg.Addrs {
			if cfg.RetryAttempts >= 1 {
				addr := addr
				rc := transport.Retry(func() (transport.Client, error) {
					return transport.DialAuto(addr, meter)
				}, cfg.RetryAttempts)
				clients = append(clients, transport.Metered(rc, meter))
				continue
			}
			c, err := transport.DialAuto(addr, meter)
			if err != nil {
				for _, open := range clients {
					open.Close()
				}
				return nil, err
			}
			clients = append(clients, transport.Metered(c, meter))
		}
	}

	cluster := &Cluster{
		clients:     clients,
		meter:       meter,
		dims:        cfg.Dims,
		sessionBase: newSessionBase(),
		logger:      cfg.Logger,
	}
	cluster.Instrument(cfg.Metrics)
	cluster.SetFlightRecorder(cfg.FlightRecorder)
	cluster.SetProgressLog(cfg.ProgressLog)
	if cfg.TranscriptDir != "" || cfg.TranscriptSample > 0 || cfg.TranscriptLog != nil {
		cluster.SetTranscriptSink(transcript.NewSink(cfg.TranscriptDir, cfg.TranscriptSample, cfg.TranscriptLog))
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

// QueryStats aggregates one query's observability record: the per-phase
// timing trace and the bandwidth meter delta, alongside the algorithm
// that ran.
type QueryStats struct {
	// Algorithm is the algorithm that executed (the default resolved).
	Algorithm Algorithm
	// Trace holds phase spans, event tallies, iteration count and the
	// time-to-first/k-th-result series.
	Trace TraceSummary
	// Bandwidth is the tuple/message/byte cost of this query.
	Bandwidth transport.Snapshot
	// Curve is the delivery-curve digest ((t, k) checkpoints, progress
	// AUCs, per-site delivered counts).
	Curve *progress.Digest `json:"curve,omitempty"`
	// Source records how the answer was produced (protocol round,
	// materialized read, or materialized read behind a refresh).
	Source Source
}

// QueryWithStats is Query plus a populated QueryStats. If opts.Trace is
// nil a private trace is attached for the duration of the call;
// otherwise the caller's trace is used (and remains readable live).
func (c *Cluster) QueryWithStats(ctx context.Context, opts Options) (*Report, *QueryStats, error) {
	return withStats(opts, func(opts Options) (*Report, error) { return Run(ctx, c, opts) })
}

// withStats is the body of both QueryWithStats methods.
func withStats(opts Options, query func(Options) (*Report, error)) (*Report, *QueryStats, error) {
	opts = opts.withDefaults()
	if opts.Trace == nil {
		opts.Trace = NewTrace()
	}
	rep, err := query(opts)
	if err != nil {
		return nil, nil, err
	}
	return rep, &QueryStats{
		Algorithm: opts.Algorithm,
		Trace:     opts.Trace.Summary(),
		Bandwidth: rep.Bandwidth,
		Curve:     rep.Curve,
		Source:    rep.Source,
	}, nil
}
