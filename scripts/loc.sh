#!/usr/bin/env sh
# Code lines per package: non-blank, non-comment, non-test Go lines —
# the count a simplicity PR reports its line delta in (ROADMAP: "report
# the line delta the way earlier PRs reported speedups"). A line is a
# comment when it starts with //. Analyzer fixtures (testdata) and the
# benchmark's build directory are not the system and are left out.
#
# With a revision as $1 (make loc BASE=<rev>) the table gains that
# revision's count and the delta: BASE's tree is extracted with git
# archive into a temporary directory, counted, and removed again, so
# .git is never written.
set -eu

cd "$(dirname "$0")/.."

# count prints "<lines> <package>" for every package under directory $1.
count() {
	(cd "$1" && find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './.bench_build/*' |
		xargs -n1 dirname | sort -u | while read -r dir; do
		n=$(ls "$dir"/*.go | grep -v '_test\.go$' | xargs cat |
			grep -v '^[[:space:]]*//' | grep -cv '^[[:space:]]*$' || true)
		echo "$n ${dir#./}"
	done)
}

if [ $# -eq 0 ]; then
	count . | awk '{ printf "%6d  %s\n", $1, $2; total += $1 } END { printf "%6d  total\n", total }'
	exit 0
fi

base=$(mktemp -d)
trap 'rm -rf "$base"' EXIT
mkdir "$base/tree"
git archive "$1" | tar -x -C "$base/tree"
count "$base/tree" >"$base/parent"
count . >"$base/change"
printf '%6s  %6s  %6s  %s\n' parent change delta "package (against $1)"
# Join the two tables on the package name; a package only one side has
# counts 0 on the other.
awk 'FNR == NR { parent[$2] = $1; seen[$2] = 1; next }
	{ change[$2] = $1; seen[$2] = 1 }
	END {
		for (p in seen) printf "%6d  %6d  %+6d  %s\n", parent[p], change[p], change[p] - parent[p], p
	}' "$base/parent" "$base/change" | sort -k4
awk 'FNR == NR { p += $1; next } { c += $1 } END { printf "%6d  %6d  %+6d  total\n", p, c, c - p }' "$base/parent" "$base/change"
