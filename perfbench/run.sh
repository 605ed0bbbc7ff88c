#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it belongs to and
# runs it with the given flags, e.g.
#
#   bash perfbench/run.sh --workload ci-sweep --seed 1 --seconds 30 --trace 0
#
# The Go build cache, the binary and every file the workloads write stay
# under .bench_build/ in the repository root.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -work "$out" "$@"
