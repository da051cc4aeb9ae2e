#!/usr/bin/env bash
# Builds the benchmark (its cluster host and its load generator) from the
# sources of the checkout it sits in, then runs the generator with the given
# arguments:
#
#   bash e2ebench/run.sh --workload cold|hot|skew --seed N --seconds S --trace 0|1
#
# Everything the build and the run write goes under .bench_build/ at the root
# of the checkout. The build is offline: the module needs nothing beyond the
# standard library and the repository itself.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd "$here" && go build -o "$out/bin/" . ./host) >&2
exec "$out/bin/e2ebench" --build-dir "$out" "$@"
