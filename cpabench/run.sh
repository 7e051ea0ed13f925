#!/usr/bin/env bash
# Builds cpacached and the cpabench program from the checkout in the
# current directory, then runs it with this script's arguments:
#
#   bash cpabench/run.sh --workload kv-hot --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays inside the checkout, under
# $CARGO_TARGET_DIR when it is set, else .bench_build: the binaries, the Go
# build cache, and the traced run's span files.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp" "$build/config"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOPATH=$build/gopath
export GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off CGO_ENABLED=0

go build -o "$build/cpacached" ./cmd/cpacached
(cd cpabench && go build -o "$build/cpabench" .)
exec "$build/cpabench" -daemon "$build/cpacached" -root "$root" -out "$build" "$@"
