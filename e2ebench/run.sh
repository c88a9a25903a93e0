#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it
# with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload mine-count --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files, the binary and the benchmark's own
# scratch files (WAL directories, span files) all stay under .bench_build/
# in the checkout. A checkout without the library sources fails the build
# and exits non-zero.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/e2ebench"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/go-tmp" TMPDIR="$out/go-tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off CGO_ENABLED=0
go -C "$root/e2ebench" build -o "$out/e2ebench/e2ebench" . >&2
cd "$root"
exec "$out/e2ebench/e2ebench" "$@"
