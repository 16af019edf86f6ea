#!/usr/bin/env sh
# bench.sh — run the engine benchmarks and record a JSON baseline.
#
# Usage:
#   scripts/bench.sh [out.json] [benchtime] [baseline.json]
#
# Runs the scheduler-sensitive engine benchmarks (BenchmarkEngineLargeN,
# BenchmarkEngineDelayHeavy, BenchmarkRingTopology, and the big-N scale
# runs BenchmarkEngineBigN in internal/sim, plus the end-to-end benches
# at the repo root) with allocation reporting, and writes the parsed
# results as JSON rows to the output file (default BENCH_4.json, the
# post-topology-layer baseline).
# Each benchmark runs BENCH_COUNT times (default 3) and the minimum ns/op
# is recorded — the standard noise-robust reading. The big-N runs are one
# iteration each regardless of benchtime: a 10⁶-process run is its own
# steady state. With a baseline file (default BENCH_2.json when present),
# each row additionally carries baseline_ns_per_op / delta_pct and
# baseline_allocs_per_op / allocs_delta_pct — the changes versus the
# baseline row of the same name (default baseline BENCH_3.json when
# present; the topology benches are new in BENCH_4 and carry no
# baseline columns). Time deltas across machines (or across a
# busy machine's moods) are indicative only; allocation counts are
# deterministic and comparable anywhere. The regression check is the
# whole-stack benchmark, paired by scripts/bench_compare.sh.
set -eu

out="${1:-BENCH_4.json}"
benchtime="${2:-10x}"
baseline="${3-BENCH_3.json}"
count="${BENCH_COUNT:-3}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

cd "$(dirname "$0")/.."
[ -f "$baseline" ] || baseline=""

go test ./internal/sim/ -run '^$' -bench 'Benchmark(Engine(LargeN|DelayHeavy)|RingTopology)' \
	-benchtime "$benchtime" -count "$count" -timeout 1800s | tee "$tmp"
go test ./internal/sim/ -run '^$' -bench 'BenchmarkEngineBigN' \
	-benchtime 1x -count "$count" -timeout 1800s | tee -a "$tmp"
go test . -run '^$' -bench 'Benchmark(EngineParallel|ProtocolRun|Strategy2KLDelayHeavy)' \
	-benchtime "$benchtime" -count "$count" -timeout 1800s | tee -a "$tmp"

# Parse `name  iters  N ns/op  N B/op  N allocs/op` lines into JSON rows
# (minimum ns/op per name across the -count repetitions), joining against
# the baseline file's one-row-per-line format when given.
awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v basefile="$baseline" '
BEGIN {
	if (basefile != "") {
		while ((getline line < basefile) > 0) {
			if (match(line, /"name": "[^"]+"/)) {
				name = substr(line, RSTART + 9, RLENGTH - 10)
				if (match(line, /"ns_per_op": [0-9.]+/))
					base[name] = substr(line, RSTART + 13, RLENGTH - 13)
				if (match(line, /"allocs_per_op": [0-9.]+/))
					baseAllocs[name] = substr(line, RSTART + 17, RLENGTH - 17)
			}
		}
		close(basefile)
	}
}
/^Benchmark/ {
	ns = bytes = allocs = "null"
	for (i = 3; i < NF; i++) {
		if ($(i+1) == "ns/op") ns = $i
		if ($(i+1) == "B/op") bytes = $i
		if ($(i+1) == "allocs/op") allocs = $i
	}
	if (!($1 in minNs)) { order[n++] = $1 }
	if (!($1 in minNs) || (ns != "null" && ns + 0 < minNs[$1] + 0)) {
		minNs[$1] = ns; rowIter[$1] = $2; rowBytes[$1] = bytes; rowAllocs[$1] = allocs
	}
}
END {
	print "["
	for (i = 0; i < n; i++) {
		name = order[i]; ns = minNs[name]
		if (i) printf ",\n"
		printf "  {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s", \
			name, rowIter[name], ns, rowBytes[name], rowAllocs[name]
		if ((name in base) && ns != "null" && base[name] > 0)
			printf ", \"baseline_ns_per_op\": %s, \"delta_pct\": %.2f", base[name], 100 * (ns - base[name]) / base[name]
		if ((name in baseAllocs) && rowAllocs[name] != "null" && baseAllocs[name] > 0)
			printf ", \"baseline_allocs_per_op\": %s, \"allocs_delta_pct\": %.2f", \
				baseAllocs[name], 100 * (rowAllocs[name] - baseAllocs[name]) / baseAllocs[name]
		printf ", \"date\": \"%s\"}", date
	}
	print "\n]"
}
' "$tmp" > "$out"

echo "wrote $out"
