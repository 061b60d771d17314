#!/usr/bin/env bash
# fuzz_smoke.sh — run every native fuzz target for a moment.
#
# `go test` executes a Fuzz* function's seed corpus only; the mutating
# engine runs under -fuzz, which takes one target of one package per
# invocation. This enumerates the targets package by package and gives
# each FUZZTIME (default 2s). Minimizing a new input gets at most 0.5 s:
# at Go's default of 60 s, a target whose exec takes milliseconds spends
# its whole slot minimizing the first input it finds instead of
# mutating. A gate that selects by name
# must not pass vacuously: the run fails unless it found at least the
# number of targets given as $1 (the Makefile states it) — raise that
# number when adding a target, lower it only when deleting one on
# purpose.
set -euo pipefail
cd "$(dirname "$0")/.."

want="${1:?usage: fuzz_smoke.sh <minimum number of fuzz targets>}"
fuzztime="${FUZZTIME:-2s}"
ran=0
for pkg in $(go list ./...); do
    for target in $(go test -list '^Fuzz' "$pkg" | grep '^Fuzz' || true); do
        echo "fuzz-smoke: $pkg $target"
        go test -run '^$' -fuzz "^${target}\$" -fuzztime "$fuzztime" \
            -fuzzminimizetime 0.5s "$pkg"
        ran=$((ran + 1))
    done
done
if [ "$ran" -lt "$want" ]; then
    echo "fuzz-smoke: found $ran fuzz targets, expected at least $want (renamed or deleted?)" >&2
    exit 1
fi
echo "fuzz-smoke: OK ($ran targets, $fuzztime each)"
