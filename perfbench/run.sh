#!/usr/bin/env bash
# Builds perfbench from the gskew checkout it is run from, then runs it
# with the given arguments:
#
#   bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# checkout: the Go build cache and work directories, the binary, the
# trace files and the spans of a traced run. The first run builds the
# standard library into that cache; later runs reuse it.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -d perfbench ]; then
	echo "perfbench/run.sh: run from the root of a gskew checkout (go.mod, internal/ and perfbench/ not found)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOTMPDIR="$build/tmp"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gomodcache"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly

go build -o "$build/perfbench" ./perfbench
exec "$build/perfbench" "$@"
