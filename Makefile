# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all check build vet boundary test race bench bench-smoke benchmark soak record replay verify examples figures clean

all: check

# The default gate: compile, vet, the round engine's import boundary, full
# test suite, then the race detector over the concurrency-heavy packages.
check: build vet boundary test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# internal/round is the paper's algorithm and nothing else: it must not
# come to depend, even transitively, on the observability tree, the codec,
# slog, pprof or net/http (so it cannot import internal/transport either),
# and of this repository's packages it may depend on geom, uncertain, msg,
# prtree (the Baseline's central solve) and serve (the maintained answer
# an update reads) alone. It speaks internal/msg, the protocol's messages,
# which is a leaf: of this repository's packages it may depend on geom and
# uncertain alone, and on none of the above.
boundary:
	@if $(GO) list -deps ./internal/round | grep -E 'repro/internal/obs|repro/internal/codec|log/slog|runtime/pprof|net/http'; then \
	  echo "internal/round depends on the packages above; observers belong in internal/core" >&2; exit 1; fi
	@if $(GO) list -deps ./internal/round | grep -E '^repro/' | grep -vxE 'repro/internal/(round|geom|uncertain|msg|prtree|serve)'; then \
	  echo "internal/round depends on the packages above; it may use geom, uncertain, msg, prtree and serve alone" >&2; exit 1; fi
	@if $(GO) list -deps ./internal/msg | grep -E '^repro/|log/slog|runtime/pprof|net/http' | grep -vxE 'repro/internal/(msg|geom|uncertain)'; then \
	  echo "internal/msg depends on the packages above; the message types are a leaf over geom and uncertain" >&2; exit 1; fi

test:
	$(GO) test ./...

# ./internal/obs/... covers the black-box recorder (internal/obs/transcript)
# alongside the rest of the observability tree. A core.view reuses its
# request, response and error buffers and its reply channel from one
# fan-out to the next, while mux read loops and the goroutines of other
# clients deliver into them; the detector is the check, so the seam tests
# that mix kinds, fail mid-fan-out (over TCP too, with late replies) and
# replay recordings run ten times over, and so do the health sweep, the
# two-wave updates (through the Server and through the update engine
# alone), the failed-update path, the one call path metering, timing and
# recording a fan-out's calls, the slow-query record, the deferred
# refills an e-DSUD round admits from a broadcast's replies, the resumed
# and protocol reads that race the serving tier's updates under its
# read-write lock,
# the routed rounds with the cluster's summary cache that concurrent
# queries and updates share, the indexes that cache builds once per entry,
# the owed feedback lists a round reuses while the view still holds the
# last fan-out's requests, and the site's bound-cut prune.
race:
	$(GO) test -race ./internal/codec ./internal/obs/... ./internal/transport ./internal/round ./internal/core ./internal/serve ./internal/stream ./internal/site ./internal/audit ./internal/experiments
	$(GO) test -race -count=10 -run 'Fanout|ClusterHealth|SlowQueryLogs|MaxResultsShips|ParentTranscripts|TopKReExpunge|UpdateWaves|UpdateEngineOracleSweep|FailedUpdate|OneCallPath|DeferredRefill|SiteRestart|ReplayClientComparesRefill|ResumedReadsRace|Routed|SummaryCache|SummaryIndexedOnce|RecordReplayWarm|CurveNeverOutruns|ConcurrentQueries|BoundsAndCarries|PruneMatchesScan' ./internal/round ./internal/core ./internal/site

# Full benchmark sweep (several minutes). Writes bench_output.txt.
bench:
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# Every benchmark of the PR-tree kernel, the site engine, the summary index
# and the round's bound refresh, one iteration each: they compile and run
# (a few seconds), and print a first reading.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/prtree ./internal/site ./internal/msg ./internal/round

# The repository benchmark (BENCHMARK.json, benchmark/README.md): every
# workload, untraced then traced. Arguments pass through, e.g.
#   make benchmark ARGS="--workload wire_tcp --seed 1 --seconds 20 --trace 0"
ARGS ?=
benchmark:
	bash benchmark/run.sh $(ARGS)

# Short open-loop soak against self-hosted loopback sites with the
# online auditor sampling; prints throughput and latency p50/p95/p99
# (see docs/OBSERVABILITY.md "Load, latency & SLOs").
soak:
	$(GO) run ./cmd/dsud-loadgen -self-host -n 2000 -sites 3 -rps 100 \
	  -duration 3s -iterations 3 -update-fraction 0.05 \
	  -audit-fraction 0.05 -max-error-rate 0.01

# Record one query's complete coordinator<->site exchange into a
# black-box transcript under $(RECORD_DIR). By default this self-hosts
# two loopback site daemons; set RECORD_ADDRS=host:port,... to record
# against a live cluster instead. See docs/OBSERVABILITY.md, section
# "Record & replay".
RECORD_DIR ?= transcripts
RECORD_ADDRS ?=
record:
	@mkdir -p $(RECORD_DIR)
ifeq ($(RECORD_ADDRS),)
	$(GO) build -o bin/ ./cmd/dsud-gen ./cmd/dsud-site ./cmd/dsud-query ./cmd/dsud-replay
	@set -e; \
	tmp=$$(mktemp -d); \
	bin/dsud-gen -n 2000 -d 3 -m 2 -seed 7 -out $$tmp; \
	bin/dsud-site -data $$tmp/site-0.dsud -id 0 -addr 127.0.0.1:7811 & s0=$$!; \
	bin/dsud-site -data $$tmp/site-1.dsud -id 1 -addr 127.0.0.1:7812 & s1=$$!; \
	trap 'kill $$s0 $$s1 2>/dev/null; rm -rf $$tmp' EXIT; \
	sleep 1; \
	bin/dsud-query -addrs 127.0.0.1:7811,127.0.0.1:7812 -dims 3 -q 0.3 \
	  -record $(RECORD_DIR) -quiet
else
	$(GO) run ./cmd/dsud-query -addrs $(RECORD_ADDRS) -dims 3 -q 0.3 -record $(RECORD_DIR)
endif

# Replay the newest recorded transcript offline (no sites needed).
replay:
	$(GO) run ./cmd/dsud-replay $$(ls -t $(RECORD_DIR)/*.dstr | head -1)

# Cross-check every engine against every oracle on generated data: the
# distributed algorithms (Baseline, DSUD, e-DSUD over independent,
# anticorrelated and correlated values), the PR-tree search and the
# vertical VDSUD against the brute-force oracle, and the distributed answer
# and the Monte Carlo sampler against possible-world sampling. A live
# cluster over a loaded dataset is checked by dsud-query -audit-fraction 1.
verify:
	$(GO) test -count=1 -run 'TestAlgorithmsAgreeWithOracle|TestDistributedAnswerMatchesMonteCarlo' ./internal/core
	$(GO) test -count=1 -run 'TestLocalSkylineMatchesOracle' ./internal/prtree
	$(GO) test -count=1 -run 'TestQueryMatchesOracle' ./internal/vertical
	$(GO) test -count=1 -run 'TestEstimatesMatchExact' ./internal/montecarlo

# Run every example end to end.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/hotels
	$(GO) run ./examples/stockmarket
	$(GO) run ./examples/updates
	$(GO) run ./examples/vertical
	$(GO) run ./examples/sensors
	$(GO) run ./examples/federation
	$(GO) run ./examples/distributed-stream

# Regenerate every paper figure at laptop scale (see EXPERIMENTS.md).
figures:
	$(GO) run ./cmd/dsud-bench -exp all

clean:
	rm -f bench_output.txt test_output.txt experiments_output.txt
	rm -f *.trace.json *.log
	rm -rf bin profiles transcripts
