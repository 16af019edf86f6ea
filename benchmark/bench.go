package main

import (
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"time"

	"github.com/ugf-sim/ugf/internal/runner"
	"github.com/ugf-sim/ugf/internal/sim"
	"github.com/ugf-sim/ugf/internal/spec"
)

// Per-op deadlines: a wedged run, lease call or sweep becomes failed ops
// and a message, never a hang.
const (
	liveDeadline  = 60 * time.Second
	leaseDeadline = 30 * time.Second
	sweepDeadline = 150 * time.Second
)

var errDeadline = errors.New("deadline passed")

// withDeadline bounds a call that takes no context. A call still going
// when the deadline passes is abandoned — it finishes on its own — and
// reported as errDeadline.
func withDeadline(d time.Duration, what string, fn func() error) error {
	ch := make(chan error, 1) // holds the one result if nobody waits any more
	go func() { ch <- fn() }()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case err := <-ch:
		return err
	case <-timer.C:
		return fmt.Errorf("%s still going after %v: %w", what, d, errDeadline)
	}
}

// The four legs of a run, in the order they execute. Each leg drives one
// user-facing entry point of the repo; the numbers double as the leg
// component of every derived seed.
const (
	legSweep uint64 = iota
	legEngine
	legCoord
	legLive
	legChecks
)

// sizes fixes the inputs of one round of each leg.
type sizes struct {
	sweepNs   []int // system sizes of the paper grid (F = ⌊0.3N⌋)
	sweepRuns int   // runs per grid point
	engineDiv int   // divisor of the engine leg's system sizes
	coordRuns int   // runs per series of the coordinator grid
	liveN     int   // nodes of a live cluster
	liveCases int   // cases a live pass runs per group; 0 is all of them
}

var (
	// full is the size of a workload's own leg, side the size of the other
	// three, smoke what -smoke (and the test) runs everywhere.
	full  = sizes{sweepNs: []int{10, 20, 30, 50, 70, 100}, sweepRuns: 10, engineDiv: 16, coordRuns: 100, liveN: 64}
	side  = sizes{sweepNs: []int{10, 20, 30, 50}, sweepRuns: 10, engineDiv: 64, coordRuns: 30, liveN: 32}
	smoke = sizes{sweepNs: []int{10, 20}, sweepRuns: 2, engineDiv: 250, coordRuns: 2, liveN: 10}
)

// warm shrinks a round to a warm-up: same system sizes (so heaps, pools
// and caches grow to their working size), fewer repetitions.
func (s sizes) warm() sizes {
	s.sweepRuns = 2
	s.engineDiv *= 4
	s.coordRuns = max(2, s.coordRuns/10)
	s.liveCases = 1
	return s
}

// workload names the leg that runs at full size. The run contract wants
// every end-to-end metric from every workload, so every workload runs all
// four legs; what differs is which one is large and gets most of the time.
// BENCHMARK.json records why each exists.
type workload struct {
	name  string
	focus uint64
}

var workloads = []workload{
	{"paper-sweep", legSweep},
	{"engine-scale", legEngine},
	{"coord-sweep", legCoord},
	{"live-cluster", legLive},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// bench is the state of one run of one workload.
type bench struct {
	w     workload
	seed  uint64
	nproc int
	smoke bool
	dir   string // scratch directory inside the checkout

	tcp bool // the descriptor limit allows the TCP leg

	attempted, failed int
	failures          []string

	vals   map[string]sample // metric → one value per round
	counts map[string]int64  // exact counts of each leg's first round
	digest hash.Hash64       // outcome hashes of each leg's first round
}

// newBench also checks, once, that the TCP leg can run at all: if not, that
// is one failed operation and a message, and the leg is skipped.
func newBench(w workload, seed uint64, nproc int, smokeMode bool, dir string) *bench {
	b := &bench{w: w, seed: seed, nproc: nproc, smoke: smokeMode, dir: dir,
		vals: make(map[string]sample), counts: make(map[string]int64), digest: fnv.New64a()}
	b.ops(1)
	if err := checkFDs(b.sizesFor(legLive).liveN); err != nil {
		b.failf("%v", err)
	} else {
		b.tcp = true
	}
	return b
}

// sizesFor is the size leg runs at under this workload.
func (b *bench) sizesFor(leg uint64) sizes {
	switch {
	case b.smoke:
		return smoke
	case leg == b.w.focus:
		return full
	}
	return side
}

func (b *bench) record(metric string, v float64) { b.vals[metric] = append(b.vals[metric], v) }

func (b *bench) failf(format string, args ...any) {
	b.failed++
	msg := fmt.Sprintf(format, args...)
	if len(b.failures) < 20 {
		b.failures = append(b.failures, msg)
	}
	fmt.Fprintln(os.Stderr, "FAILED:", msg)
}

// ops counts n attempted operations; failf counts the ones that failed.
func (b *bench) ops(n int) { b.attempted += n }

// pin folds round 0 of a leg into the run's exact, repeatable record:
// counts by name and every outcome hash in order. The traced run repeats
// round 0; the first one counts.
func (b *bench) pin(leg string, hashes []string, counts map[string]int64) {
	if _, pinned := b.counts[leg+".runs"]; pinned {
		return
	}
	fmt.Fprintf(b.digest, "%s|", leg)
	for _, h := range hashes {
		fmt.Fprintf(b.digest, "%s,", h)
	}
	for k, v := range counts {
		b.counts[leg+"."+k] = v
	}
}

func (b *bench) digestString() string { return fmt.Sprintf("%016x", b.digest.Sum64()) }

// rounds calls round(0), round(1), … until the next one would overrun the
// budget, and at least atLeast times.
func rounds(budget time.Duration, atLeast int, round func(r int)) {
	start := time.Now()
	for r := 0; ; r++ {
		if r >= atLeast && r > 0 {
			elapsed := time.Since(start)
			if elapsed+elapsed/time.Duration(r) > budget {
				return
			}
		}
		round(r)
	}
}

// checkOutcome counts the failures a finished run can carry.
func (b *bench) checkOutcome(what string, o sim.Outcome) {
	if o.HorizonHit && !o.Stalled {
		b.failf("%s: unexpected HorizonHit (cancelled=%v)", what, o.Cancelled)
	}
}

// checkResults counts failed runs of a sweep and returns every outcome
// hash in series-major, run-minor order.
func (b *bench) checkResults(what string, res []runner.Result) []string {
	var hashes []string
	for _, r := range res {
		for _, e := range r.Errors {
			b.failf("%s: %v", what, e)
		}
		for _, e := range r.Flaky {
			b.failf("%s: flaky: %v", what, e)
		}
		for i, o := range r.Outcomes {
			b.checkOutcome(fmt.Sprintf("%s %s run %d", what, r.Spec.Name, i), o)
			hashes = append(hashes, spec.OutcomeHash(o))
		}
	}
	return hashes
}

func totals(res []runner.Result) (runs int, events, sends int64) {
	for _, r := range res {
		for _, o := range r.Outcomes {
			runs++
			events += o.Stats.Events
			sends += o.Stats.Sends
		}
	}
	return
}
