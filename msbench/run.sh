#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed on to the benchmark binary, e.g.
#
#   bash msbench/run.sh --workload corpus --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the daemons' temporary stores all
# live under .bench_build/ (or $CARGO_TARGET_DIR), so nothing is written
# outside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/msbench" && go build -trimpath -o "$out/msbench" .)
exec "$out/msbench" -out "$out" "$@"
