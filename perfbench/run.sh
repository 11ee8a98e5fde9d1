#!/usr/bin/env bash
# run.sh — build the perfbench command from source and run it.
#
# Run from the repository root:
#
#   bash perfbench/run.sh --workload learn-cold --seed 1 --seconds 10 --trace 0
#
# Every build artefact (the Go build cache, temp files, the binary) and every
# file the benchmark writes stays under .bench_build/ in the current
# directory. The build needs the repository's own module one directory up
# (perfbench/go.mod replaces gameofcoins with ../), so a copy of perfbench/
# without the rest of the repository fails here, before printing a result.
set -euo pipefail

build=.bench_build
mkdir -p "$build/tmp" "$build/config"
build=$(cd "$build" && pwd)
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
