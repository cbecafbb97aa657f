#!/usr/bin/env bash
# Builds the benchmark and entk-serve from this checkout and runs the
# benchmark from the checkout root, e.g.
#
#   bash perfbench/run.sh --workload bulk-eop --seed 1 --seconds 25 --trace 0
#
# Everything the build and the runs write stays under .bench_build in
# the checkout: the Go build cache, temporary files, the go command's
# user config (telemetry counters), binaries, results.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
# The benchmark is a module of its own that requires the repository's
# module from the directory above, so the build fails where that is
# missing.
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
go build -o "$build/bin/entk-serve" ./cmd/entk-serve >&2
exec "$build/bin/perfbench" --serve-bin "$build/bin/entk-serve" --out "$build/perfbench" "$@"
