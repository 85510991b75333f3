#!/usr/bin/env bash
# Builds mavbench from source into .bench_build/ of the checkout and runs
# it with the given arguments. The Go build cache lives there too unless
# GOCACHE is already set, so a run writes nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
export GOCACHE="${GOCACHE:-$root/.bench_build/go-cache}"
export GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$root/.bench_build/mavbench" ./cmd/mavbench
exec "$root/.bench_build/mavbench" -dir bench "$@"
