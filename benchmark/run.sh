#!/usr/bin/env bash
# Driver entry point, run from the root of a checkout:
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Builds the load generator from source into .bench_build/ (the Go build
# cache lives there too, so nothing outside the checkout is written) and runs
# it with the arguments given.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
