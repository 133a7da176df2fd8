#!/usr/bin/env bash
# Builds the replay benchmark from the checkout's source and runs it.
# Run from the repository root:
#
#   bash replaybench/run.sh --workload serve-week --seed 1 --seconds 10 --trace 0
#
# Build output, the Go build cache, durability files and traces all go
# under $CARGO_TARGET_DIR (default .bench_build) in the repository root.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/replaybench"

export GOCACHE=$out/replaybench/gocache
export GOMODCACHE=$out/replaybench/gomodcache
export GOPATH=$out/replaybench/gopath
export XDG_CONFIG_HOME=$out/replaybench/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

bin=$out/replaybench/replaybench
(cd "$here" && go build -o "$bin.tmp" . && mv "$bin.tmp" "$bin")

commit=unknown
if [ -d "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$bin" --work "$out/replaybench/work" --traces "$out/replaybench/traces" --commit "$commit" "$@"
