#!/usr/bin/env bash
# bench_compare.sh — the whole-stack benchmark (BENCHMARK.json,
# benchmark/) on a base commit and on this checkout, paired.
#
# Usage (from anywhere inside the checkout):
#   scripts/bench_compare.sh <base> <pairs> <workload>...
#
#   base      a git ref, checked out into a temporary `git worktree` that
#             is removed on exit — or a directory that already holds a
#             checkout of the base (a `git clone`, a `git archive`), used
#             in place
#   pairs     how many base/change pairs each workload gets; ten is what a
#             claim needs (benchmark/README.md), three is a smoke alarm
#   workload  paper-sweep | engine-scale | coord-sweep | live-cluster
#
# Every pair runs `benchmark/run.sh --workload w --seed s --seconds
# <run_seconds> --trace 0 -report …` once on each side with the same seed;
# even pairs run the base first, odd pairs the change, so a busy minute on
# the machine lands on both sides. Seeds count up from the clock, so no
# invocation repeats a seed an earlier one used. Each side's binary is
# built from its own checkout, into its own .bench_build/.
#
# Reports go to .bench_build/compare/ (gitignored) and the comparison —
# per (metric, workload) both medians, quartiles, delta, bound, verdict —
# to stdout. The exit code is non-zero when a run failed, when any
# end-to-end metric reads `worse` (beyond its BENCHMARK.json bound), or
# when counts and outcome digests differ between the sides for equal
# seeds: the two commits no longer simulate the same thing.
set -euo pipefail

if [ $# -lt 3 ]; then
	sed -n '2,/^set -euo/{/^set -euo/d;s/^# \{0,1\}//;p;}' "$0" >&2
	exit 2
fi
base="$1" pairs="$2"
shift 2

head="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [ -d "$base" ]; then
	basedir="$(cd "$base" && pwd)"
else
	basedir="$head/.bench_build/base"
	git -C "$head" worktree remove --force "$basedir" 2>/dev/null || true
	git -C "$head" worktree add --detach "$basedir" "$base" >/dev/null
	trap 'git -C "$head" worktree remove --force "$basedir"' EXIT
fi
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$head/BENCHMARK.json")"
out="$head/.bench_build/compare"
mkdir -p "$out"
stamp="$(date +%s)"
a="$out/$stamp-base.jsonl" b="$out/$stamp-change.jsonl"

run() { # <checkout> <report> <workload> <seed>
	echo "bench_compare: $3 seed $4 on $1" >&2
	bash "$1/benchmark/run.sh" --workload "$3" --seed "$4" --seconds "$seconds" --trace 0 -report "$2" >/dev/null
}
for w in "$@"; do
	for ((i = 0; i < pairs; i++)); do
		seed=$((stamp + i))
		if ((i % 2 == 0)); then
			run "$basedir" "$a" "$w" "$seed"
			run "$head" "$b" "$w" "$seed"
		else
			run "$head" "$b" "$w" "$seed"
			run "$basedir" "$a" "$w" "$seed"
		fi
	done
done

bash "$head/benchmark/run.sh" -compare "$a" "$b" | tee "$out/$stamp-compare.txt"
if grep -Eq ' worse$|^counts and outcome digests differ' "$out/$stamp-compare.txt"; then
	echo "bench_compare: FAIL — a metric is worse than its bound, or the sides' counts and digests differ" >&2
	exit 1
fi
