#!/usr/bin/env bash
# Serving benchmark entry point. Builds cmd/serve and the harness from the
# sources of the checkout it lives in, then runs one workload:
#
#   bash perfbench/run.sh --workload ingest-steady --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact stays under <checkout>/.bench_build. Without
# the repository's own sources next to it the build fails, and so does this
# script, before any result is printed.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gomodcache" "$build/tmp" "$build/config"
# The Go toolchain's caches, temp files and user config (telemetry) all
# point into the checkout.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOWORK=off GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
# With telemetry in its default "local" mode, the first go command under a
# fresh config directory forks a detached upload sidecar that outlives it.
# The mode file is the only switch the toolchain reads, so turn it off here,
# before any go command runs.
mkdir -p "$build/config/go/telemetry"
printf 'off\n' > "$build/config/go/telemetry/mode"

(cd "$root" && go build -o "$build/bin/serve" ./cmd/serve) >&2
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" -serve "$build/bin/serve" -workdir "$build" "$@"
