#!/usr/bin/env bash
# Builds the PBS sync benchmark from source and runs it. Run it from the
# root of the repository:
#
#   bash perfbench/run.sh --workload warm-500k-d10 --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the benchmark's scratch files all
# stay under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/gotmp" "$build/config"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/gotmp"
export XDG_CONFIG_HOME="$build/config"
# The benchmark and the module it measures need nothing from the network.
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off
export CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
