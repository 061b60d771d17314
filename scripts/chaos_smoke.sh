#!/usr/bin/env bash
# chaos_smoke.sh — randomized fault-injection smoke under the race
# detector.
#
# Runs the fault-schedule differential suites (engine-level and
# ER-pipeline-level), the strategy table's generated draws (every fifth
# runs under the chaos schedule) and the mid-phase cancellation tests
# with -race and a randomized chaos seed. The seed is echoed up front: a
# failing run reproduces with
#
#   CHAOS_SEED=<seed> scripts/chaos_smoke.sh
#
# because every chaos decision is a pure hash of the seed and the
# attempt's identity — no other randomness source exists in the suite.
set -euo pipefail
cd "$(dirname "$0")/.."

SEED="${CHAOS_SEED:-$RANDOM$RANDOM$RANDOM}"
echo "chaos-smoke: seed=$SEED (reproduce with CHAOS_SEED=$SEED $0)"

SUITES=(TestFaultScheduleDifferential TestSpillFaultDifferential
    TestPlanExecutionEquivalenceFuzz
    TestERFaultScheduleDifferential TestERChaosDifferential TestCancelMidPhase)
PACKAGES=(./internal/mapreduce ./internal/er)
PATTERN="^($(IFS='|'; echo "${SUITES[*]}"))\$"

# go test -run exits 0 when its pattern matches nothing, so a renamed
# suite would turn this gate into a no-op: every name must be listed.
listed="$(go test -list "$PATTERN" "${PACKAGES[@]}")"
for suite in "${SUITES[@]}"; do
    if ! grep -qx "$suite" <<<"$listed"; then
        echo "chaos-smoke: suite $suite not found in ${PACKAGES[*]} (renamed or deleted?)" >&2
        exit 1
    fi
done

# The custom flag must follow the package list: the go tool stops
# parsing its own flags at the first one it does not recognize.
go test -race -count=1 -run "$PATTERN" "${PACKAGES[@]}" -chaos-seed="$SEED"

echo "chaos-smoke: OK (seed=$SEED)"
