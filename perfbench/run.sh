#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it with the
# given arguments, from the repository root. Everything the Go toolchain
# writes (build cache, temporary files, its config) stays under
# .bench_build in the checkout.
#
#   bash perfbench/run.sh --workload p2p-ddt --seed 1 --seconds 15 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gomodcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
