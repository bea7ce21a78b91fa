#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given (see README.md). Everything the toolchain and the run leave
# behind stays under bench/.bench_build/, which .gitignore names.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/.bench_build"
mkdir -p "$out/bin" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOENV=off GOTOOLCHAIN=local GOFLAGS= XDG_CONFIG_HOME="$out/config"
(cd "$here" && go build -o "$out/bin/csqbench" .)
exec "$out/bin/csqbench" -dir "$out" "$@"
