#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload analyze-deep --seed 1 --seconds 20 --trace 0
#
# Build products, the Go build cache and traces stay under .bench_build/.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/home" "$build/tmp"
if [ -z "${PERFBENCH_COMMIT:-}" ]; then
	PERFBENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
fi
export PERFBENCH_COMMIT
(
	cd perfbench
	HOME="$build/home" XDG_CONFIG_HOME="$build/home" GOCACHE="$build/gocache" \
		GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local \
		GOWORK=off GOENV=off \
		go build -o "$build/bin/perfbench" .
)
exec "$build/bin/perfbench" "$@"
