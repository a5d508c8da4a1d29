#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload attack-campaign --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and the service workload's scratch
# journals all stay under the checkout's build directory.
set -euo pipefail

root=$(pwd)
build="$root/${CARGO_TARGET_DIR:-.bench_build}"
case "${CARGO_TARGET_DIR:-}" in /*) build=$CARGO_TARGET_DIR ;; esac
mkdir -p "$build"

export GOCACHE="$build/go-cache"
export GOMODCACHE="$build/go-mod"
export GOPATH="$build/go-path"
export GOTOOLCHAIN=local
export GOENV=off
export CGO_ENABLED=0

bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
(cd "$bench_dir" && go build -o "$build/perfbench" .) >&2
cd "$root"
exec "$build/perfbench" -scratch "$build" "$@"
