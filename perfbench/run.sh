#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from the
# checkout root:
#
#   bash perfbench/run.sh --workload paper-acr --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (Go build cache, binary, spans,
# CPU profiles) stays under .bench_build/ in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" -out "$out" "$@"
