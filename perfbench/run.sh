#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload push-fanout --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and
# every run's working files stay under .bench_build/ there.
set -euo pipefail

root=$(pwd)
bench="$root/perfbench"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$bench/go.mod" ]]; then
	echo "perfbench: run from the repository root (engine sources not found)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" HOME="$out/home" XDG_CONFIG_HOME="$out/home" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod CGO_ENABLED=0 GOWORK=off
(cd "$bench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
