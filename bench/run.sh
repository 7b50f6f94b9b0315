#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given flags, e.g.
#
#   bash bench/run.sh -workload table3 -seed 1 -seconds 20 -trace 0
#   bash bench/run.sh -seed 1 -j 2            # every workload, as children
#   bash bench/run.sh compare A1.json A2.json B1.json B2.json
#
# Everything it writes (the binary, the Go build cache, scratch spools)
# stays under .bench_build/ in the directory it is run from. The build
# fails, and nothing is run, unless the repository's Go sources sit next
# to bench/.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/modcache" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps its settings and telemetry under the user config
# directory; point that inside too.
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly

(cd "$bench_dir" && go build -o "$out/dfbench" .) >&2
exec "$out/dfbench" "$@"
