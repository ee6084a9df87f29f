#!/usr/bin/env bash
# bench/run.sh builds fleetbench from the checkout's sources and runs it,
# passing its arguments through:
#
#   bash bench/run.sh --workload query-scan --seed 7 --seconds 12 --trace 0
#
# It is the `command` of BENCHMARK.json.  Everything it writes — the Go
# build cache, the binary and the run's data directories — stays under
# .bench_build/ in the checkout, so HOME (where the go tool keeps its
# caches and telemetry) points there too.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/home"
export HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$build/fleetbench" ./fleetbench)
cd "$root"
exec "$build/fleetbench" -dir "$build" "$@"
