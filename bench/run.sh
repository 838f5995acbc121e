#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout (rebuilding only when a source file is newer than the binary) and
# runs it from that root, so that nothing is read or written outside the
# checkout — the Go build cache included.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
bin="$out/coca-wallbench"
if [ ! -x "$bin" ] || [ -n "$(find "$root" -path "$out" -prune -o \( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)" ]; then
	mkdir -p "$out"
	(cd "$here" && GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
		GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off go build -o "$bin" .)
fi
cd "$root"
exec "$bin" "$@"
