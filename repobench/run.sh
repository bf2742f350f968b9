#!/usr/bin/env bash
# Builds the repository benchmark from the sources of the checkout it is
# run from, then runs it with the given arguments. Run from the root of
# the checkout:
#
#   bash repobench/run.sh --workload fleet-1k --seed 1 --seconds 25 --trace 0
#
# The Go build cache, the toolchain's scratch and config files and the
# binary stay under .bench_build/ in the checkout; no module is
# downloaded (the benchmark imports only the repository's own packages
# and the standard library).
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOPROXY=off GOWORK=off GOTOOLCHAIN=local
go -C "$root/repobench" build -o "$out/bin/repobench" .
exec "$out/bin/repobench" "$@"
