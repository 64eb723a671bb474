#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# This is BENCHMARK.json's command; run it from the root of a checkout.
# Everything the build writes stays under .bench_build/ in that checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTOOLCHAIN=local GOPROXY=off

# The benchmark is its own module (benchmark/go.mod) that replaces the
# program's module with the parent directory, so without the program's
# sources beside it this build fails and nothing is run.
(cd "$root/benchmark" && go build -o "$out/dsud-benchmark" .) >&2
exec "$out/dsud-benchmark" "$@"
