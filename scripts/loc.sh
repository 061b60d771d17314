#!/usr/bin/env sh
# Code lines per package: non-blank, non-comment, non-test Go lines —
# the count a simplicity PR reports its line delta in (ROADMAP: "report
# the line delta the way earlier PRs reported speedups"). A line is a
# comment when it starts with //. Analyzer fixtures (testdata) and the
# benchmark's build directory are not the system and are left out.
set -eu

cd "$(dirname "$0")/.."

total=0
for dir in $(find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './.bench_build/*' |
	xargs -n1 dirname | sort -u); do
	n=$(ls "$dir"/*.go | grep -v '_test\.go$' | xargs cat |
		grep -v '^[[:space:]]*//' | grep -cv '^[[:space:]]*$' || true)
	printf '%6d  %s\n' "$n" "${dir#./}"
	total=$((total + n))
done
printf '%6d  total\n' "$total"
