#!/usr/bin/env sh
# Low-memory smoke for the out-of-core dataflow: runs ermatch over the
# full-size DS1 stand-in with GOMEMLIMIT set well below the shuffle
# volume and a small -spill-budget, once per strategy. Each run must
# succeed, really spill (its trace has spill spans), leave the spill
# directory empty, and write the same matches as an in-memory run of
# the same strategy. The three in-memory runs must then count the same
# comparisons and find the same matches as each other (header-less
# bodies, sorted: Basic's order differs), so a reducer bug in one
# strategy alone cannot pass. The CI job calls this;
# usage: scripts/lowmem_smoke.sh [scale] [budget] [gomemlimit]
set -eu

cd "$(dirname "$0")/.."

scale="${1:-1}"
budget="${2:-1m}"
memlimit="${3:-24MiB}"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/" ./cmd/ergen ./cmd/ermatch ./scripts/tracecheck
"$tmp/ergen" -dataset ds1 -scale "$scale" -out "$tmp/ds1.csv"
mkdir "$tmp/spill"

# -parallelism 1 makes the streamed -out file byte-identical between
# runs, so the spilled output is compared with cmp, unsorted.
for strategy in basic blocksplit pairrange; do
	echo "==> ermatch -strategy $strategy -spill-budget $budget (GOMEMLIMIT=$memlimit), scale $scale"
	"$tmp/ermatch" -in "$tmp/ds1.csv" -strategy "$strategy" -m 4 -r 16 \
		-parallelism 1 -out "$tmp/mem.csv" | sed -n 's/^comparisons=\([0-9]*\) .*/\1/p' >"$tmp/$strategy.comparisons"
	tail -n +2 "$tmp/mem.csv" | LC_ALL=C sort >"$tmp/$strategy.sorted"
	GOMEMLIMIT="$memlimit" "$tmp/ermatch" -in "$tmp/ds1.csv" -strategy "$strategy" -m 4 -r 16 \
		-parallelism 1 -spill-budget "$budget" -tmpdir "$tmp/spill" \
		-trace "$tmp/spill.trace.json" -out "$tmp/spill.csv"

	if [ -n "$(ls -A "$tmp/spill")" ]; then
		echo "FAIL: $strategy: spill directory not empty after run:" >&2
		ls -l "$tmp/spill" >&2
		exit 1
	fi
	"$tmp/tracecheck" -require spill "$tmp/spill.trace.json"
	if ! cmp "$tmp/mem.csv" "$tmp/spill.csv"; then
		echo "FAIL: $strategy: spilled output differs from the in-memory run" >&2
		exit 1
	fi
done
if [ ! -s "$tmp/basic.sorted" ] || [ ! -s "$tmp/basic.comparisons" ]; then
	echo "FAIL: the in-memory basic run reported no matches or no comparisons, so the strategies compare nothing" >&2
	exit 1
fi
for strategy in blocksplit pairrange; do
	if ! cmp "$tmp/basic.comparisons" "$tmp/$strategy.comparisons" || ! cmp "$tmp/basic.sorted" "$tmp/$strategy.sorted"; then
		echo "FAIL: $strategy counts other comparisons or finds other matches than basic" >&2
		exit 1
	fi
done
echo "low-memory smoke OK (three strategies spilled, outputs equal across residencies and strategies, spill dir clean)"
