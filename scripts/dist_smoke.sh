#!/usr/bin/env bash
# dist_smoke.sh — end-to-end distributed smoke with a mid-reduce kill.
#
# Builds the real binaries (ergen, ermatch, erworker), runs one match
# job locally and once distributed across three worker processes, and
# SIGKILLs one worker the instant it starts a reduce attempt (the
# worker self-reports via -mark-reduce and widens the kill window with
# -slow-reduce). The master must detect the death through its
# heartbeat/lease protocol, reassign the lost attempt, and finish with
# the local run's output (the same lines; their order is the reduce
# tasks' completion order). Surviving workers are then
# stopped gracefully (SIGTERM) and must leave empty run directories.
#
# The same run carries the observability checks, all on the written
# traces (scripts/tracecheck): the master's chrome trace must show
# dispatches, commits, two worker lanes, the death and the reassign;
# worker 1's ndjson trace must hold its task and shuffle-fetch spans.
set -euo pipefail
cd "$(dirname "$0")/.."

WORK="$(mktemp -d)"
WORKER_PIDS=()
MASTER_PID=""
VICTIM=""
cleanup() {
    for pid in ${WORKER_PIDS[@]+"${WORKER_PIDS[@]}"} $VICTIM; do
        kill -9 "$pid" 2>/dev/null || true
    done
    [ -n "$MASTER_PID" ] && kill "$MASTER_PID" 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

echo "dist-smoke: building binaries"
go build -o "$WORK/bin/" ./cmd/ergen ./cmd/ermatch ./cmd/erworker

"$WORK/bin/ergen" -dataset ds1 -scale 0.05 -out "$WORK/ds.csv"

# Local oracle run: same job, same flags, no master. -parallelism is
# explicit on both runs: ermatch defaults it to the core count, the
# master hands a task to the least-loaded worker, lowest id first, and
# with fewer than four tasks in flight the victim (third to register,
# behind two two-slot workers) would never be given one.
"$WORK/bin/ermatch" -in "$WORK/ds.csv" -strategy blocksplit -m 4 -r 16 \
    -parallelism 4 -out "$WORK/local.csv"

# Distributed run: the master waits for three registered workers
# before dispatching, and publishes its URL through the addr file.
# -trace captures the driver-side timeline across the kill, validated
# below: the reassignment must be visible in the exported trace.
ADDR_FILE="$WORK/master.addr"
"$WORK/bin/ermatch" -in "$WORK/ds.csv" -strategy blocksplit -m 4 -r 16 \
    -parallelism 4 \
    -master 127.0.0.1:0 -master-addr-file "$ADDR_FILE" -workers 3 \
    -trace "$WORK/dist.trace.json" \
    -out "$WORK/dist.csv" 2>"$WORK/master.err" &
MASTER_PID=$!

for _ in $(seq 1 100); do
    [ -s "$ADDR_FILE" ] && break
    sleep 0.1
done
[ -s "$ADDR_FILE" ] || { cat "$WORK/master.err" >&2; echo "dist-smoke: FAIL: master never wrote $ADDR_FILE" >&2; exit 1; }
MASTER_URL="$(cat "$ADDR_FILE")"
echo "dist-smoke: master at $MASTER_URL"

# Three workers; the third is the victim — it marks its first reduce
# attempt in a file and stalls every reduce for 2s so the SIGKILL
# below always lands mid-task. The first exports its own ndjson trace
# when it is stopped gracefully.
mkdir -p "$WORK/w1" "$WORK/w2" "$WORK/w3"
MARKER="$WORK/reduce.marker"
"$WORK/bin/erworker" -master "$MASTER_URL" -dir "$WORK/w1" -slots 2 \
    -trace "$WORK/worker1.trace.ndjson" -trace-format ndjson \
    2>"$WORK/w1.err" &
WORKER_PIDS+=("$!")
"$WORK/bin/erworker" -master "$MASTER_URL" -dir "$WORK/w2" -slots 2 &
WORKER_PIDS+=("$!")
"$WORK/bin/erworker" -master "$MASTER_URL" -dir "$WORK/w3" -slots 1 \
    -mark-reduce "$MARKER" -slow-reduce 2s &
VICTIM=$!

for _ in $(seq 1 300); do
    [ -e "$MARKER" ] && break
    sleep 0.1
done
[ -e "$MARKER" ] || { echo "dist-smoke: FAIL: victim never started a reduce attempt" >&2; exit 1; }
kill -9 "$VICTIM"
echo "dist-smoke: SIGKILLed victim worker (pid $VICTIM) mid-task: $(cat "$MARKER")"

wait "$MASTER_PID" || { cat "$WORK/master.err" >&2; echo "dist-smoke: FAIL: distributed run failed" >&2; exit 1; }
MASTER_PID=""

# Streamed -out files list the reduce tasks' matches in completion
# order, which no two runs at -parallelism > 1 share: compare sorted.
cmp <(sort "$WORK/local.csv") <(sort "$WORK/dist.csv")
echo "dist-smoke: distributed output identical to local run, line for line once sorted ($(wc -l < "$WORK/dist.csv") lines)"

# The exported trace must be Perfetto-loadable, show per-worker
# swimlanes (the victim plus at least one survivor — dispatch reuses
# freed workers, so an idle third lane is legitimate), hold the
# dispatches and the commits, and record the death and the
# reassignment of the in-flight attempt as instants.
go run ./scripts/tracecheck -format chrome -min-complete 1 \
    -min-worker-lanes 2 -require dispatch,commit,worker-death,reassign \
    "$WORK/dist.trace.json"

# Graceful shutdown: survivors must remove their private run dirs.
for pid in "${WORKER_PIDS[@]}"; do
    kill -TERM "$pid" 2>/dev/null || true
done
for pid in "${WORKER_PIDS[@]}"; do
    wait "$pid" 2>/dev/null || true
done
WORKER_PIDS=()
for d in "$WORK/w1" "$WORK/w2"; do
    leftover="$(ls -A "$d")"
    if [ -n "$leftover" ]; then
        echo "dist-smoke: FAIL: $d not empty after graceful stop: $leftover" >&2
        exit 1
    fi
done
# The killed worker never got to clean up — its directory remaining is
# the expected SIGKILL shape, not a leak (it dies with the workspace).
echo "dist-smoke: graceful workers left empty run dirs"

# The graceful stop flushed worker 1's trace: every line must parse,
# the meta line's event count must match, and the worker's own task
# spans and its shuffle reads must be there.
go run ./scripts/tracecheck -format ndjson -require task,shuffle-fetch \
    "$WORK/worker1.trace.ndjson"
echo "dist-smoke: OK"
