#!/usr/bin/env bash
# Builds the perfledger benchmark from the source tree it sits in and runs
# it with the given arguments:
#
#   bash perfledger/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. The binary, the Go build cache and the
# traced runs' span files all stay under .bench_build/ in that directory.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go -C perfledger build -o "$out/bin/perfledger" . >&2
exec "$out/bin/perfledger" "$@"
