#!/usr/bin/env bash
# artifacts_compare.sh — regenerate the paper's artifacts on a base commit
# and on this checkout, and fail on any byte that differs.
#
# Usage (from anywhere inside the checkout):
#   scripts/artifacts_compare.sh <base> <fidelity> [exp]
#
#   base      a git ref, checked out into a temporary `git worktree` that
#             is removed on exit — or a directory that already holds a
#             checkout of the base (a `git clone`, a `git archive`), used
#             in place
#   fidelity  quick | medium | full
#   exp       an experiment id or "all" (default: all)
#
# Each side's ugfbench is built from its own checkout and run as
# `ugfbench -exp <exp> -fidelity <fidelity> -out <dir>`; then `diff -r`
# compares the two directories' .csv and .md files. The outputs stay in
# .bench_build/artifacts/<stamp>/{base,change} (gitignored), the walls of
# both runs go to stderr, and the exit code is non-zero when either run
# failed or any artifact differs. A change that claims identical artifacts
# (a refactor, a dedup, a new store) runs this against its parent.
set -euo pipefail

if [ $# -lt 2 ]; then
	sed -n '2,/^set -euo/{/^set -euo/d;s/^# \{0,1\}//;p;}' "$0" >&2
	exit 2
fi
base="$1" fidelity="$2" exp="${3:-all}"

head="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [ -d "$base" ]; then
	basedir="$(cd "$base" && pwd)"
else
	basedir="$head/.bench_build/artifacts-base"
	git -C "$head" worktree remove --force "$basedir" 2>/dev/null || true
	git -C "$head" worktree add --detach "$basedir" "$base" >/dev/null
	trap 'git -C "$head" worktree remove --force "$basedir"' EXIT
fi
out="$head/.bench_build/artifacts/$(date +%s)"
mkdir -p "$out/base" "$out/change"

for side in base change; do
	src="$basedir"
	[ "$side" = change ] && src="$head"
	go build -C "$src" -o "$out/ugfbench-$side" ./cmd/ugfbench
done
for side in base change; do
	start=$(date +%s%N)
	"$out/ugfbench-$side" -exp "$exp" -fidelity "$fidelity" -progress=false -out "$out/$side" >"$out/$side.txt"
	echo "artifacts_compare: $side -exp $exp -fidelity $fidelity took $((($(date +%s%N) - start) / 1000000)) ms" >&2
done

if ! ls "$out/base"/*.md >/dev/null 2>&1; then
	echo "artifacts_compare: FAIL — the base wrote no artifacts" >&2
	exit 1
fi
if ! diff -r --exclude='*.jsonl' "$out/base" "$out/change"; then
	echo "artifacts_compare: FAIL — artifacts differ ($out)" >&2
	exit 1
fi
echo "artifacts_compare: $(ls "$out/change" | grep -c -E '\.(csv|md)$') artifacts identical ($out)"
