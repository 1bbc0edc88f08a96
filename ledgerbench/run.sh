#!/usr/bin/env bash
# Builds the ledger benchmark from this checkout's sources and runs it.
# Everything the build and the run write stays under .bench_build/.
#
# Usage, from the repository root:
#   bash ledgerbench/run.sh --workload fig4 --seed 1 --seconds 40 --trace 0
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
# The go command keeps its settings and telemetry counters under the user
# config directory; point that into the build directory too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd ledgerbench && go build -o "$out/ledgerbench" .)
exec "$out/ledgerbench" "$@"
