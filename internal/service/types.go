// Package service turns the simulator into a sweep service: a
// content-addressed result cache keyed by canonical spec fingerprints, an
// HTTP job API for submitting and observing sweeps, and a
// coordinator/worker runtime that partitions a (spec, seed) grid across
// worker processes while folding results through the same stats/journal
// pipeline a local run uses — so the artifacts of a distributed sweep are
// byte-identical to a purely local one.
//
// The package splits along deployment lines. Coordinator owns all sweep
// state and implements the whole protocol in-process (its methods are the
// API); Server exposes the coordinator over HTTP (ugfbench -serve);
// Client speaks that HTTP surface and satisfies the same interfaces, so
// everything downstream — workers, the executor, the facade — is
// indifferent to whether the coordinator is in-process or across the
// network. RunWorker drives the lease loop (ugfbench -worker), and
// ExecuteSpecs adapts a sweep backend to the runner's result contract
// (ugfbench -coord).
package service

import (
	"github.com/ugf-sim/ugf/internal/runner"
	"github.com/ugf-sim/ugf/internal/sim"
	"github.com/ugf-sim/ugf/internal/spec"
)

// SweepRequest submits a grid of runs. Each spec describes one run; Runs,
// when > 1, expands every spec into Runs runs whose seeds derive from the
// spec's Seed exactly as the local runner derives them
// (xrand.Derive(seed, i)), so a distributed sweep computes the identical
// seed set a local batch would.
type SweepRequest struct {
	// Name labels the sweep in status output (optional).
	Name string `json:"name,omitempty"`
	// Specs is the grid. Every spec is validated against the registries at
	// submit time; the first invalid spec rejects the whole request.
	Specs []spec.Spec `json:"specs"`
	// Runs expands each spec into this many derived-seed repetitions
	// (0 and 1 both mean "one run per spec, as given").
	Runs int `json:"runs,omitempty"`
}

// SubmitResponse acknowledges a submitted sweep.
type SubmitResponse struct {
	// ID names the sweep for Status/Stream.
	ID string `json:"id"`
	// Total is the number of runs in the sweep after expansion.
	Total int `json:"total"`
	// CacheHits is how many of them were served from the result cache at
	// submit time — those results are already in the event feed.
	CacheHits int `json:"cache_hits"`
	// DedupHits is how many joined tasks already queued or leased for
	// another sweep (or an earlier index of this one) instead of enqueuing
	// duplicate work.
	DedupHits int `json:"dedup_hits"`
}

// SweepStatus reports a sweep's progress.
type SweepStatus struct {
	ID   string `json:"id"`
	Name string `json:"name,omitempty"`
	// Done, Total, Failed, CacheHits, DedupHits count runs.
	Done      int `json:"done"`
	Total     int `json:"total"`
	Failed    int `json:"failed"`
	CacheHits int `json:"cache_hits"`
	DedupHits int `json:"dedup_hits"`
	// Finished is true once every run has a result.
	Finished bool `json:"finished"`
	// Progress is the runner's progress snapshot — rate and ETA computed
	// exactly as the local -progress line computes them, with cache-served
	// runs discounted the way journal-served runs are.
	Progress runner.Snapshot `json:"progress"`
}

// ResultEvent is one entry of a sweep's result feed: the outcome (or
// deterministic failure) of the run at Index in the sweep's task order.
// Events are retained for the sweep's lifetime, so a stream can always
// resubscribe from any index.
type ResultEvent struct {
	// Index is the run's position in the sweep (spec-major, run-minor).
	Index int `json:"index"`
	// Fingerprint is the run's canonical spec fingerprint — its cache key.
	Fingerprint string `json:"fp"`
	// Spec is the canonical spec of the run.
	Spec spec.Spec `json:"spec"`
	// Outcome is the run's outcome; nil when the run failed with no
	// recovered outcome (Err is then non-nil).
	Outcome *sim.Outcome `json:"outcome,omitempty"`
	// Err records a failure. Deterministic failures carry no outcome;
	// an environmental (flaky, recovered-by-retry) failure accompanies the
	// retry's outcome, in the events of the sweeps that waited on the run
	// and never in a Cached one.
	Err *runner.RunError `json:"error,omitempty"`
	// Cached marks a result served from the content-addressed cache
	// without recomputation.
	Cached bool `json:"cached,omitempty"`
}

// Failed reports whether the event's run produced no outcome.
func (ev ResultEvent) Failed() bool {
	return ev.Err != nil && (ev.Err.Deterministic || ev.Outcome == nil)
}

// Lease hands one run to a worker. The worker must Complete it before the
// coordinator's lease TTL expires, or the run is requeued for another
// worker (the existing RunError classification still applies: a
// deterministic failure reported inside the TTL is final and cached, only
// vanished workers trigger the retry path).
type Lease struct {
	// ID names the lease for Complete.
	ID string `json:"id"`
	// Fingerprint and Spec identify the run.
	Fingerprint string    `json:"fp"`
	Spec        spec.Spec `json:"spec"`
	// Attempt counts prior leases of this run (0 for the first).
	Attempt int `json:"attempt"`
	// TTLSeconds is the coordinator's lease TTL, so workers can bound
	// their per-run wall clock below it.
	TTLSeconds float64 `json:"ttl_seconds"`
}

// CompleteRequest reports a leased run's result. Exactly one of the
// following shapes is valid: an Outcome (success; Err optionally records
// a recovered flaky incident), an Err with Deterministic set (the run
// and its same-seed retry both panicked), or a ConfigError (the spec
// failed to build or run on the worker — version skew between worker and
// coordinator).
type CompleteRequest struct {
	Outcome *sim.Outcome     `json:"outcome,omitempty"`
	Err     *runner.RunError `json:"error,omitempty"`
	// ConfigError is sim.Run's configuration error text, fatal for the
	// run: every retry would fail identically.
	ConfigError string `json:"config_error,omitempty"`
}

// Record is one cached run — one line of the cache's log: the canonical
// spec and its outcome or deterministic failure. Both are pure functions
// of the fingerprint, so a record is immutable once written.
type Record struct {
	Fingerprint string           `json:"fp"`
	Spec        spec.Spec        `json:"spec"`
	Outcome     *sim.Outcome     `json:"outcome,omitempty"`
	Err         *runner.RunError `json:"error,omitempty"`
}

// Counters aggregates the coordinator's lifetime counters.
type Counters struct {
	// Computed counts runs executed by workers to completion.
	Computed int `json:"computed"`
	// CacheHits counts runs served from the result cache at submit time.
	CacheHits int `json:"cache_hits"`
	// DedupHits counts submitted runs that joined in-flight tasks.
	DedupHits int `json:"dedup_hits"`
	// Requeued counts leases reaped after TTL expiry and requeued.
	Requeued int `json:"requeued"`
	// Queued and Leased are the current queue depths.
	Queued int `json:"queued"`
	Leased int `json:"leased"`
	// CacheWriteErrors counts records that did not reach the cache
	// directory: they are served from memory and recomputed after a
	// restart.
	CacheWriteErrors int `json:"cache_write_errors"`
}
