#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it with the given arguments. Every build product, the Go build cache and
# the span dumps stay under .bench_build at the root of the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
# The go command keeps its telemetry under the user config directory; point
# that into the build directory too.
XDG_CONFIG_HOME="$out/config" go -C "$root/perfbench" build -o "$out/perfbench" . >&2
cd "$root"
exec "$out/perfbench" "$@"
