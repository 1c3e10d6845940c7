#!/usr/bin/env bash
# Builds the harness and the daemon under test from source into
# .bench_build/ of the checkout, then runs one benchmark run:
#
#   bash benchmarks/run.sh --workload chip_opt_192 --seed 7 --seconds 20 --trace 0
#
# Everything the build and the run write stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$root" && go build -o "$build/bin/cfaopcd" ./cmd/cfaopcd)
(cd "$here" && go build -o "$build/bin/opcbench" ./opcbench)
cd "$root"
exec "$build/bin/opcbench" -daemon "$build/bin/cfaopcd" -work "$build/work" "$@"
