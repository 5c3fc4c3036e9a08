#!/usr/bin/env bash
# Builds sdpd and the benchmark driver from this checkout, then runs one
# workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload local-query --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout, including the Go build cache.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/sdpd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a sariadne checkout" >&2
	exit 2
fi

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off

# The source identity: the commit when this is a git work tree, and a
# hash of every Go source and module file either way.
commit=none
if [[ -e .git ]]; then
	commit=$(git rev-parse --short HEAD 2>/dev/null || echo none)
fi
tree=$(find . -path ./.bench_build -prune -o -path ./.git -prune -o \
	\( -name '*.go' -o -name go.mod \) -type f -print | LC_ALL=C sort |
	xargs sha256sum | sha256sum | cut -c1-12)

run=$(mktemp -d "$build/run.XXXXXX")
trap 'rm -rf "$run"' EXIT
go build -o "$run/sdpd" ./cmd/sdpd
(cd perfbench && go build -o "$run/perfbench" .)
"$run/perfbench" -sdpd "$run/sdpd" -workdir "$run" -source "commit $commit tree $tree" "$@"
