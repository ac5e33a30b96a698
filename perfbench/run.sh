#!/usr/bin/env bash
# Builds the deflation-simulator benchmark from this checkout's sources and
# runs it with the given arguments (see perfbench/README.md).
#
#   bash perfbench/run.sh --workload heavytail-pressure --seed 1 --seconds 35 --trace 0
#
# Every build product and cache stays inside the checkout under
# .bench_build; nothing is fetched from the network.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
# XDG_CONFIG_HOME keeps the go command's config and telemetry files here too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
