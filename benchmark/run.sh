#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. Every
# file the build and the run write — the Go build cache included — lands
# under .bench_build at the root of the checkout.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash benchmark/run.sh all -out <file> [-seed n] [-repeat n]
#   bash benchmark/run.sh compare <a.json> <b.json>
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/gotmp" "$out/run"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOTOOLCHAIN=local
go build -C "$here" -o "$out/benchmark" .
case "${1:-}" in
all) shift; exec "$out/benchmark" all -dir "$out/run" "$@" ;;
compare) exec "$out/benchmark" "$@" ;;
esac
exec "$out/benchmark" -dir "$out/run" "$@"
