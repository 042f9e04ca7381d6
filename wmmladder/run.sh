#!/usr/bin/env bash
# Builds wmmd, wmmworker and the benchmark program from the checkout in the
# current directory, then runs the benchmark with this script's arguments:
#
#   bash wmmladder/run.sh --workload paper --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write lands under .bench_build/ in the
# checkout: the Go build cache, temporary files and the binaries.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/wmmd" ] || [ ! -d "$root/wmmladder" ]; then
	echo "wmmladder: run from the root of a wmm checkout (go.mod, cmd/wmmd and wmmladder/ are needed)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off GOSUMDB=off CGO_ENABLED=0

go build -o "$build/bin/" ./cmd/wmmd ./cmd/wmmworker >&2
(cd "$root/wmmladder" && go build -o "$build/bin/wmmladder" .) >&2

exec "$build/bin/wmmladder" -bin "$build/bin" -work "$build/work" "$@"
