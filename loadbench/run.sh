#!/usr/bin/env bash
# Builds the load generator from source and runs it with the given
# arguments, from the root of the repository:
#
#   bash loadbench/run.sh --workload cold-extract --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under .bench_build at
# the repository root (binary, Go build cache, traced-run spans).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOENV=off GOTELEMETRY=off
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"

(cd "$root/loadbench" && go build -o "$out/loadbench" .)
cd "$root"
exec "$out/loadbench" -spans "$out/spans" "$@"
