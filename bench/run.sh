#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the
# checkout. Everything the toolchain writes (build cache, binaries) stays
# inside the checkout, under .bench_build.
#
#   bash bench/run.sh --workload t3_topk --seed 1 --seconds 16 --trace 0
#   bash bench/run.sh --compare a.jsonl b.jsonl
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache"
export GOMODCACHE="$build/go-mod"
export GOTOOLCHAIN=local
export GOFLAGS="${GOFLAGS:-} -buildvcs=false"

(cd bench && go build -o "$build/xbench" .)
exec "$build/xbench" "$@"
