#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload mbtc-rollback --seed 7 --seconds 20 --trace 0
#
# Every file the build and the run write stays under $CARGO_TARGET_DIR
# (default .bench_build): the Go build cache, the binary, run files and
# trace spans. Without the repository's sources next to perfbench/ the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off CGO_ENABLED=0
mkdir -p "$GOTMPDIR"

# The sources are identified by their digest, so uncommitted edits show.
# In a git checkout the commit they were made on goes in front of it.
commit="src:$(find . -path ./.git -prune -o -path ./.bench_build -prune -o -path "./$(basename "$out")" -prune -o \
	-type f \( -name '*.go' -o -name go.mod \) -print | LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
if [ "$(git rev-parse --show-toplevel 2>/dev/null)" = "$PWD" ]; then
	commit="git:$(git rev-parse HEAD)+$commit"
fi

(cd perfbench && go build -o "$out/perfbench/perfbench" .)
exec "$out/perfbench/perfbench" --commit "$commit" "$@"
