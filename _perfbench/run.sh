#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout, then runs it with the given flags (see README.md). The Go build
# cache and temporary files stay inside .bench_build/ as well.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "$0")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
