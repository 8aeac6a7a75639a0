#!/usr/bin/env bash
# Builds the benchmark and runs it against the repository this script sits
# in, passing every argument through:
#
#   bash bench/run.sh --workload mice-b1024 --seed 2 --seconds 10 --trace 0
#
# Go's build cache and temporary files go under .bench_build at the
# repository root, so a run reads and writes nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
cd "$root/bench"
go build -o "$out/bench" .
cd "$root"
exec "$out/bench" -root "$root" "$@"
