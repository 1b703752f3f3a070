#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it with the given arguments. Run from the repository root:
#
#   bash whynotbench/run.sh --workload cold_2d --seed 1 --seconds 16 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory (Go build cache included). Without the repository's own
# sources next to whynotbench/ the build fails and the script exits non-zero.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export HOME="$build/home" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/whynotbench" && go build -o "$build/bin/whynotbench" .)
exec "$build/bin/whynotbench" "$@"
