#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing all
# arguments through, e.g.:
#
#   bash perfbench/run.sh --workload burst --seed 1 --seconds 20 --trace 0
#
# Run from the checkout root. Everything the build and the run write stays
# in .bench_build/ under the root: the Go build cache, temporary files, the
# binary, CPU profiles, span dumps and the server's scratch state.
set -euo pipefail

root=$PWD
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOMODCACHE=$out/gomod \
	XDG_CONFIG_HOME=$out/config PPROF_TMPDIR=$out/tmp \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -scratch "$out" "$@"
