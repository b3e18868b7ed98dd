#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the checkout.
# Everything the build and the run leave behind (Go build cache, binary,
# snapshot files) stays under .bench_build/ there.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: no go.mod in $root: the benchmark measures the xqtp module it sits in" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# The commit is stamped into the binary when the checkout is a git
# repository that git can read, and left out otherwise.
go build -C benchmark -o "$build/xqbench" . 2>/dev/null ||
	go build -C benchmark -buildvcs=false -o "$build/xqbench" .
exec "$build/xqbench" "$@"
