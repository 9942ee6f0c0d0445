#!/usr/bin/env bash
# Builds the benchmark (a Go module of its own in this directory) and
# runs it from the root of the checkout:
#
#   bash bench/run.sh --workload stream-ids --seed 1 --seconds 36 --trace 0
#   bash bench/run.sh compare base/*.json -- change/*.json
#
# Report paths given to compare are relative to the checkout root.
# Everything the run builds or writes (Go build cache, the benchmark and
# phased binaries, data dirs, reports, spans) stays under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
# The go command's own files (telemetry counters, its env file) live
# under the user config dir; keep them in the checkout too.
export XDG_CONFIG_HOME="$out/config"
cd "$root"
go build -C bench -o "$out/bench" .
exec "$out/bench" "$@"
