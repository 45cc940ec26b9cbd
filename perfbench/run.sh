#!/usr/bin/env bash
# Builds the benchmark program (nsbench) from this checkout's sources and runs it.
# Run from the repository root; every argument is passed through, e.g.
#
#   bash perfbench/run.sh --workload job_latency --seed 1 --seconds 12 --trace 0
#
# Build outputs, the Go build cache and the benchmark's temporary stores
# all live under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (needs go.mod, internal/ and perfbench/)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false

(cd perfbench && go build -o "$out/nsbench" .)
exec "$out/nsbench" "$@"
