#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs one workload.
# Run it from the repository root:
#
#   bash e2ebench/run.sh --workload estimate --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, temporary
# files, the binary, archives, span dumps) stays under .bench_build.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$root/.bench_build
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOPATH=$build/gopath GOTOOLCHAIN=local GOWORK=off GOFLAGS=
# The go command keeps local telemetry counters under the user config
# directory; point it inside the build directory too.
export XDG_CONFIG_HOME=$build/config
(cd "$here" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" -work "$build/work" "$@"
