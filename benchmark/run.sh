#!/usr/bin/env bash
# Builds the load generator from the sources of the checkout this script
# sits in, then runs it with the given arguments, e.g.
#
#   bash benchmark/run.sh --workload wide-cold --seed 1 --seconds 10 --trace 0
#
# Every file the build writes (compiler cache, temporary files, binary, Go's
# user-level state) stays under .bench_build/ at the checkout root. Without
# the repository's sources next to benchmark/ the build fails and the script
# exits non-zero without printing a result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export TMPDIR="$build/tmp"
export GOTMPDIR="$build/tmp"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=

(cd "$root/benchmark" && go build -o "$build/pipebench" .)
cd "$root"
exec "$build/pipebench" "$@"
