#!/usr/bin/env sh
# verify.sh — full pre-merge verification: vet, tests, race detector.
#
# Tier-1 (fast): go build ./... && go test ./...
# This script is the stronger gate referenced from ROADMAP.md; run it
# before merging engine or runner changes.
set -eux

cd "$(dirname "$0")/.."

go vet ./...
go build ./...
go test -timeout 10m ./...
go test -race -timeout 20m ./...

# Full differential/property sweep (internal/simtest): engine vs the
# naive reference engine, serial vs parallel, serial vs sharded commits
# (outcomes, and traced runs byte for byte), same-seed determinism, and
# online trace validation, over 600 generated configs per property —
# above the 224 a plain non-short `go test` uses and far above the 48 of
# tier-1's -short mode. Roughly a quarter of the
# generated configs carry an active fault plan (lossy links, partitions,
# crash-recovery scripts) and another quarter a non-complete topology
# (ring, k-regular, expander, radio — with edge-edit scripts and the
# rewire adversary in the mix), each paired with a stall window and an
# event cutoff, so the sweep covers the fault pipeline, the edge-liveness
# send path, and stall-safe termination on every property.
UGF_PROPERTY_CONFIGS=600 go test -count=1 -timeout 20m -run 'TestProperty' ./internal/simtest/

# Sharded-commit race band: the shards property and its traced twin
# again, under the race detector, on a reduced config band. The plain
# sweep above proves the merge is outcome- and trace-preserving; this run
# is what actually exercises the shard lanes' no-shared-mutable-state
# claim — the traced property is the only one in which lanes append trace
# events concurrently (CI runs the same band).
UGF_PROPERTY_CONFIGS=80 go test -race -count=1 -timeout 15m -run 'TestPropertyShardsMatchSerial|TestPropertyTracedShardsMatchSerial' ./internal/simtest/

# Live-transport oracle band: the full internal/live suite already ran in
# the -race pass above (bit-exact live ≡ sim equality, audited traces,
# TCP parity); this adds the reduced statistical-compatibility band —
# disjoint seed sets through both runtimes, tolerance + chi-squared on
# the outcome distributions — under the race detector with its own name
# on the failure.
go test -race -short -count=1 -timeout 10m -run 'TestLiveMatchesSimStatistically' ./internal/simtest/

# The whole-stack benchmark is a module of its own (benchmark/go.mod), so
# nothing above builds it: vet and test it, then one smoke run of every
# workload — seconds each; run.sh exits non-zero if any operation or
# cross-check failed.
(cd benchmark && go vet ./... && go test ./...)
for w in paper-sweep engine-scale coord-sweep live-cluster; do
	bash benchmark/run.sh --workload "$w" --seed 1 --seconds 1 --trace 0 -smoke
done
