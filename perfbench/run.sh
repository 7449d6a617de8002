#!/usr/bin/env bash
# Builds cmd/reproserve and the benchmark from this checkout, then runs
# the benchmark with the given arguments. Run from the checkout's root:
#
#   bash perfbench/run.sh --workload served-read --seed 1 --seconds 10 --trace 0
#
# Every build product and temporary file stays under .bench_build/.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
go build -o "$out/bin/reproserve" ./cmd/reproserve >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -bin "$out/bin" "$@"
