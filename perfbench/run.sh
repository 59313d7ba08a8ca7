#!/usr/bin/env bash
# Builds topojoind and the benchmark driver from this checkout, then
# runs one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload relate --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binaries, the generated suite
# and each run's daemon state.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/bin/topojoind" ./cmd/topojoind
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -repo "$root" -bin "$out/bin/topojoind" "$@"
