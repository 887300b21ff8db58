#!/usr/bin/env bash
# Builds the cs CLI and the perfbench binary from the checkout, then
# runs one benchmark workload:
#
#   bash perfbench/run.sh --workload figures --seed 1 --seconds 16 --trace 0
#
# Run it from the repository root. Every build product, cache and
# scratch file stays under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
if [[ ! -f go.mod || ! -d internal || ! -f cmd/cs/main.go || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root: go.mod, internal/ and cmd/cs/ must sit beside perfbench/" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
export CGO_ENABLED=0

go build -o "$build/cs" ./cmd/cs
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -root "$root" -cs "$build/cs" "$@"
