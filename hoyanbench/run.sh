#!/usr/bin/env bash
# Builds the Hoyan benchmark from the checkout's sources and runs it:
#
#   bash hoyanbench/run.sh --workload whatif-wan4 --seed 1 --seconds 15 --trace 0
#
# Run it from the root of a Hoyan checkout. Build outputs, the Go build cache
# and traces stay under $CARGO_TARGET_DIR (default .bench_build) inside the
# checkout; nothing is fetched, the benchmark module only replaces its
# dependency on the Hoyan module with the checkout itself.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/serve || ! -f hoyanbench/go.mod ]]; then
	echo "hoyanbench: run from the root of a Hoyan checkout (go.mod, internal/ and hoyanbench/ not found)" >&2
	exit 2
fi

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
[[ $build == /* ]] || build="$root/$build"
mkdir -p "$build/gocache" "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off

(cd hoyanbench && go build -o "$build/hoyanbench" .)
exec "$build/hoyanbench" --trace-dir "$build/traces" "$@"
