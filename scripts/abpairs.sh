#!/usr/bin/env sh
# A/B pairs: the claim protocol as one command. BASE and the working
# tree are frozen into a temporary directory (BASE with git archive, as
# loc.sh does; the working tree, uncommitted edits included, with a tar
# copy), and each pair runs
#
#	go run ./benchmark -workload W -seed SEED -seconds SECONDS -trace 0
#
# once on each side, alternating which side goes first. For every
# workload and end-to-end metric it prints the median and quartiles of
# each side's harness statistic (the quartiles as the harness computes
# them), the pairs the change won, and the verdict: a claim needs at
# least 9 of 10 pairs won and a median that moved by more than the
# base's IQR. A metric named *_per_s is better higher, every other one
# lower.
#
#	scripts/abpairs.sh BASE "W1 W2 ..." [PAIRS] [SEED] [SECONDS]
#	make ab BASE=<rev> W="flat-spill flat-mem" PAIRS=10 SEED=7 SECONDS=15
#
# Each run's table stays in the temporary directory until the end;
# AB_KEEP=1 keeps the directory and prints its path.
set -eu

if [ $# -lt 2 ]; then
	echo "usage: $0 BASE \"WORKLOADS\" [PAIRS] [SEED] [SECONDS]" >&2
	exit 2
fi
base_rev=$1 workloads=$2 pairs=${3:-10} seed=${4:-1} seconds=${5:-15}

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
if [ "${AB_KEEP:-}" = 1 ]; then
	trap 'echo "abpairs: runs kept in $tmp" >&2' EXIT
else
	trap 'rm -rf "$tmp"' EXIT
fi
mkdir "$tmp/base" "$tmp/change"
git archive "$base_rev" | tar -x -C "$tmp/base"
tar -c --exclude=./.git --exclude=./.bench_build . | tar -x -C "$tmp/change"

# run SIDE PAIR W appends "SIDE PAIR W metric value" for each metric
# line of the benchmark's table to $tmp/data.
run() {
	out="$tmp/$1-$2-$3.txt"
	if ! (cd "$tmp/$1" && go run ./benchmark -workload "$3" -seed "$seed" -seconds "$seconds" -trace 0 -out "$tmp/out-$1") >"$out" 2>&1; then
		echo "abpairs: $1 run of $3 in pair $2 failed; its output:" >&2
		cat "$out" >&2
		exit 1
	fi
	awk -v side="$1" -v pair="$2" -v w="$3" '$1 == w && NF >= 4 && $3 ~ /^[-0-9.e+]+$/ { print side, pair, w, $2, $3 }' "$out" >>"$tmp/data"
}

: >"$tmp/data"
i=1
while [ "$i" -le "$pairs" ]; do
	for w in $workloads; do
		if [ $((i % 2)) -eq 1 ]; then first=base second=change; else first=change second=base; fi
		run "$first" "$i" "$w"
		run "$second" "$i" "$w"
	done
	echo "abpairs: pair $i of $pairs done" >&2
	i=$((i + 1))
done

echo "base=$base_rev pairs=$pairs seed=$seed seconds=$seconds"
awk -v pairs="$pairs" '
	# quartile is Python statistics.quantiles(n=4), exclusive method:
	# what benchmark/stats.go computes.
	function quartile(a, n, q,    m, j, d) {
		if (n == 1) return a[1]
		m = n + 1
		j = int(q * m / 4); if (j < 1) j = 1; if (j > n - 1) j = n - 1
		d = q * m - j * 4
		return (a[j] * (4 - d) + a[j + 1] * d) / 4
	}
	function isort(a, n,    i, j, t) {
		for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
	}
	function med(a, n) { return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2 }
	{ v[$1, $3, $4, $2] = $5; if (!(($3, $4) in seen)) { seen[$3, $4] = 1; order[++k] = $3 SUBSEP $4 } }
	END {
		printf "%-20s %-16s %10s %21s %10s %21s %6s  %s\n", "workload", "metric", "base", "(q1..q3)", "change", "(q1..q3)", "won", "verdict"
		for (o = 1; o <= k; o++) {
			split(order[o], key, SUBSEP)
			w = key[1]; m = key[2]; higher = m ~ /_per_s$/
			nb = nc = won = n = 0
			delete b; delete c
			for (p = 1; p <= pairs; p++) {
				if (!(("base", w, m, p) in v) || !(("change", w, m, p) in v)) continue
				x = v["base", w, m, p]; y = v["change", w, m, p]
				b[++nb] = x; c[++nc] = y; n++
				if (higher ? y > x : y < x) won++
			}
			if (n == 0) continue
			isort(b, nb); isort(c, nc)
			mb = med(b, nb); mc = med(c, nc)
			q1 = quartile(b, nb, 1); q3 = quartile(b, nb, 3)
			d = mc - mb; if (d < 0) d = -d
			verdict = (10 * won >= 9 * n && d > q3 - q1) ? "CLAIM" : "no claim"
			if (m ~ /^env\./) verdict = "(environment)"
			printf "%-20s %-16s %10.4g (%8.4g..%-8.4g) %10.4g (%8.4g..%-8.4g) %3d/%-2d  %s\n", w, m, mb, q1, q3, mc, quartile(c, nc, 1), quartile(c, nc, 3), won, n, verdict
		}
	}' "$tmp/data"
