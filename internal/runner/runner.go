// Package runner executes batches of simulation runs on a worker pool.
//
// The experiments of the paper are embarrassingly parallel — Figure 3
// alone is ~50 runs × 10 system sizes × 3 series × 5 panels — so the
// harness fans individual runs out across goroutines. Each run derives its
// seed deterministically from (spec base seed, run index); the outcome set
// of a batch is therefore identical regardless of worker count or
// scheduling, and every run can be reproduced in isolation from its
// recorded seed.
//
// The pool is fault-tolerant: a panic inside a protocol or adversary is
// confined to its run and recorded as a RunError (after a same-seed retry
// that classifies it as deterministic or environmental), cancellation via
// context stops batches cooperatively mid-run, and an optional Journal
// makes interrupted batches resumable without recomputation.
package runner

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ugf-sim/ugf/internal/sim"
	"github.com/ugf-sim/ugf/internal/xrand"
)

// Spec describes one experiment series: a configuration template repeated
// Runs times with derived seeds.
type Spec struct {
	// Name labels the series in reports ("ears/ugf", "push-pull/none", …).
	Name string
	// Base is the configuration template. Its Seed field is ignored;
	// run i uses xrand.Derive(BaseSeed, i).
	Base sim.Config
	// Runs is the number of repetitions (the paper uses 50).
	Runs int
	// BaseSeed seeds the series.
	BaseSeed uint64
}

// RunError records a single run that panicked instead of completing — the
// blast radius of a faulty protocol or adversary is one run, never the
// batch. The triple (Spec name, Run, Seed) reproduces the failure in
// isolation: runner jobs derive the seed deterministically, so
// sim.Run(spec.Base with Seed) replays the exact execution.
type RunError struct {
	// Spec is the name of the series the run belongs to.
	Spec string
	// Run is the run index within the spec.
	Run int
	// Seed is the derived per-run seed, xrand.Derive(BaseSeed, Run).
	Seed uint64
	// Panic is the formatted panic value of the failing attempt.
	Panic string
	// Stack is the goroutine stack captured at the point of the panic.
	Stack string
	// Deterministic classifies the failure: true when the same-seed retry
	// panicked again (the fault replays from (Config, Seed) and will recur
	// on every attempt), false when the retry completed — an environmental
	// failure whose outcome was recovered.
	Deterministic bool
}

func (e *RunError) Error() string {
	class := "environmental, recovered by same-seed retry"
	if e.Deterministic {
		class = "deterministic, reproduced by same-seed retry"
	}
	return fmt.Sprintf("runner: spec %q run %d (seed %d) panicked: %v (%s)",
		e.Spec, e.Run, e.Seed, e.Panic, class)
}

// Result pairs a Spec with the outcomes of its runs, in run order.
type Result struct {
	Spec     Spec
	Outcomes []sim.Outcome
	// Errors records the runs that failed deterministically: the run and
	// its same-seed retry both panicked. The corresponding Outcomes slot
	// holds a placeholder with HorizonHit set, so every cutoff-aware
	// statistic already skips it. Sorted by Run.
	Errors []*RunError
	// Flaky records runs whose first attempt panicked but whose same-seed
	// retry completed (environmental failures). Their Outcomes slot holds
	// the retry's outcome, which entered the statistics normally. Sorted
	// by Run.
	Flaky []*RunError
}

// Failed returns the number of runs that produced no outcome.
func (r *Result) Failed() int { return len(r.Errors) }

// Kept returns the outcomes of the runs that completed, skipping the
// placeholder slots of failed runs. When nothing failed it returns
// Outcomes itself.
func (r *Result) Kept() []sim.Outcome {
	if len(r.Errors) == 0 {
		return r.Outcomes
	}
	failed := make(map[int]bool, len(r.Errors))
	for _, e := range r.Errors {
		failed[e.Run] = true
	}
	kept := make([]sim.Outcome, 0, len(r.Outcomes)-len(r.Errors))
	for i, o := range r.Outcomes {
		if !failed[i] {
			kept = append(kept, o)
		}
	}
	return kept
}

// RunUpdate describes one finished run to an Options.OnRun observer,
// together with cumulative batch counters. Counter fields are snapshots
// taken when the run finished; Done is unique and dense (1..Total across
// all updates), the cumulative counters are monotone but may appear
// out of order across concurrently delivered updates.
type RunUpdate struct {
	// Spec and Run identify the finished run; Seed is its derived seed.
	Spec string
	Run  int
	Seed uint64
	// Done and Total count finished runs (any way) against the batch size.
	Done, Total int
	// Failed and Flaky are the cumulative deterministic-failure and
	// recovered-by-retry counts so far.
	Failed, Flaky int
	// FromJournal marks a run served from the journal without
	// recomputation; Journaled is the cumulative count of such runs.
	FromJournal bool
	Journaled   int
	// Err is set when this run failed deterministically.
	Err *RunError
}

// Options parameterizes ExecuteContext beyond the spec list.
type Options struct {
	// Workers bounds run-level parallelism (≤ 0: GOMAXPROCS).
	Workers int
	// Progress, when non-nil, is called after each finished run (completed,
	// failed, or served from the journal) with the number done and the
	// total. It may be called concurrently from several workers.
	Progress func(done, total int)
	// OnRun, when non-nil, is called after each finished run with the run's
	// identity and cumulative batch counters — the feed behind live
	// progress lines, ETA estimates, and expvar metrics. Like Progress it
	// may be called concurrently from several workers and must be fast; it
	// runs on the worker goroutine.
	OnRun func(u RunUpdate)
	// Trace, when non-nil, supplies a per-run trace sink: it is called
	// before each computed run (never for journal-served ones) and its
	// result becomes the run's Config.Trace. A nil result disables tracing
	// for that run. Sinks that implement io.Closer are closed when the run
	// finishes; a panicking run's sink is closed and a fresh one opened for
	// the same-seed retry, so a trace file never mixes two attempts.
	Trace func(spec Spec, run int) sim.TraceSink
	// Journal, when non-nil, serves previously recorded runs without
	// recomputation and records every newly finished run, making the batch
	// resumable after a crash or SIGINT. Cancelled outcomes are never
	// journaled — their stopping point depends on wall-clock time.
	Journal *Journal
	// MaxWall is the per-run wall-clock watchdog forwarded to
	// sim.Config.MaxWall (0: none). Runs stopped by the watchdog count as
	// cutoffs (HorizonHit) and are recomputed on resume.
	MaxWall time.Duration
}

// Execute runs every spec's repetitions across workers goroutines
// (workers ≤ 0 means GOMAXPROCS). progress, when non-nil, is called after
// each completed run with the number done and the total. The first
// configuration error aborts the batch.
func Execute(specs []Spec, workers int, progress func(done, total int)) ([]Result, error) {
	return ExecuteContext(context.Background(), specs, Options{Workers: workers, Progress: progress})
}

// ExecuteContext is Execute with cancellation, fault isolation, and
// optional journaling.
//
// Fault tolerance semantics:
//   - A run that panics is retried once with the same seed. If the retry
//     completes, its outcome is kept and the incident is recorded in
//     Result.Flaky; if it panics again, the failure is deterministic and
//     is recorded in Result.Errors while the rest of the batch continues.
//   - A configuration error (sim.Run returning an error) still aborts the
//     batch: it means the spec itself is wrong, and every sibling run
//     would fail identically. Workers short-circuit the remaining queued
//     jobs instead of draining them at full cost.
//   - Cancelling ctx stops the batch at the next run boundary and
//     interrupts in-flight runs at their next engine event boundary.
//     ExecuteContext then returns the partial results alongside ctx's
//     error; with a Journal attached, every completed run has already been
//     recorded, so a rerun resumes where the batch stopped.
func ExecuteContext(ctx context.Context, specs []Spec, opts Options) ([]Result, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		// Run-level parallelism multiplies with in-run commit sharding
		// (Spec.Base.Workers > 1): a batch of sharded runs at full
		// GOMAXPROCS run-level fan-out would oversubscribe the machine
		// shards-fold. Divide the default by the widest shard count so the
		// product stays at GOMAXPROCS; an explicit opts.Workers overrides.
		maxShards := 1
		for i := range specs {
			if w := specs[i].Base.Workers; w > maxShards {
				maxShards = w
			}
		}
		if maxShards > 1 {
			if workers /= maxShards; workers < 1 {
				workers = 1
			}
		}
	}
	type job struct {
		spec, run int
	}
	total := 0
	results := make([]Result, len(specs))
	for i, s := range specs {
		if s.Runs <= 0 {
			return nil, fmt.Errorf("runner: spec %q has Runs = %d", s.Name, s.Runs)
		}
		results[i] = Result{Spec: s, Outcomes: make([]sim.Outcome, s.Runs)}
		total += s.Runs
	}

	// Buffered so the submit loop below streams jobs without blocking on
	// worker hand-off; workers drain at their own pace.
	jobs := make(chan job, total)
	var (
		wg        sync.WaitGroup
		done      atomic.Int64
		failedCt  atomic.Int64
		flakyCt   atomic.Int64
		journaled atomic.Int64
		firstErr  error
		errOnce   sync.Once
		stopped   atomic.Bool // batch failed or cancelled: drain, don't run
		faultMu   sync.Mutex  // guards Errors/Flaky appends across workers
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		stopped.Store(true)
	}
	finish := func(u RunUpdate) {
		u.Done = int(done.Add(1))
		u.Total = total
		if opts.Progress != nil {
			opts.Progress(u.Done, total)
		}
		if opts.OnRun != nil {
			u.Failed = int(failedCt.Load())
			u.Flaky = int(flakyCt.Load())
			u.Journaled = int(journaled.Load())
			opts.OnRun(u)
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if stopped.Load() || ctx.Err() != nil {
					continue // short-circuit: drain the queue without running
				}
				spec := specs[j.spec]
				cfg := spec.Base
				cfg.Seed = xrand.Derive(spec.BaseSeed, uint64(j.run))
				update := RunUpdate{Spec: spec.Name, Run: j.run, Seed: cfg.Seed}
				if opts.Journal != nil {
					if o, re, ok := opts.Journal.Lookup(spec, j.run); ok {
						update.FromJournal = true
						journaled.Add(1)
						if re != nil {
							failedCt.Add(1)
							update.Err = re
							faultMu.Lock()
							results[j.spec].Errors = append(results[j.spec].Errors, re)
							faultMu.Unlock()
							results[j.spec].Outcomes[j.run] = FailedOutcome(cfg)
						} else {
							results[j.spec].Outcomes[j.run] = o
						}
						finish(update)
						continue
					}
				}
				cfg.Cancel = ctx.Done()
				cfg.MaxWall = opts.MaxWall
				var sinkFn func() sim.TraceSink
				if opts.Trace != nil {
					run := j.run
					sinkFn = func() sim.TraceSink { return opts.Trace(spec, run) }
				}
				o, re, err := Attempt(cfg, spec.Name, j.run, sinkFn)
				if err != nil {
					fail(fmt.Errorf("runner: spec %q run %d: %w", spec.Name, j.run, err))
					continue
				}
				if re != nil {
					if re.Deterministic {
						failedCt.Add(1)
						update.Err = re
						faultMu.Lock()
						results[j.spec].Errors = append(results[j.spec].Errors, re)
						faultMu.Unlock()
						results[j.spec].Outcomes[j.run] = o
						if opts.Journal != nil {
							opts.Journal.Record(spec, j.run, nil, re)
						}
						finish(update)
						continue
					}
					flakyCt.Add(1)
					faultMu.Lock()
					results[j.spec].Flaky = append(results[j.spec].Flaky, re)
					faultMu.Unlock()
				}
				results[j.spec].Outcomes[j.run] = o
				if opts.Journal != nil && !o.Cancelled {
					opts.Journal.Record(spec, j.run, &o, nil)
				}
				finish(update)
			}
		}()
	}
	for si := range specs {
		for r := 0; r < specs[si].Runs; r++ {
			jobs <- job{spec: si, run: r}
		}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	for i := range results {
		sortByRun(results[i].Errors)
		sortByRun(results[i].Flaky)
	}
	if err := ctx.Err(); err != nil {
		// Partial results: completed runs are valid (and journaled, when a
		// journal is attached); the rest never ran or were cancelled.
		return results, err
	}
	return results, nil
}

// Attempt executes one run with the pool's fault-isolation semantics,
// outside any pool — the primitive the worker loop and the sweep
// service's lease executor share, so a run leased over HTTP fails and
// retries exactly like a local one.
//
// A panic anywhere in the protocol/adversary/engine stack triggers one
// same-seed retry: a run is a pure function of its Config, so a second
// panic classifies the fault as deterministic (the returned outcome is
// the FailedOutcome placeholder and re.Deterministic is set), while a
// completed retry means the failure was environmental — the retry's
// outcome is returned alongside a non-deterministic re recording the
// incident. sink, when non-nil, supplies a fresh trace sink per attempt
// (a retry never appends to the first attempt's trace); sinks that
// implement io.Closer are closed when their attempt finishes. A non-nil
// err is a configuration error: the spec itself is wrong, and every
// sibling run would fail identically.
func Attempt(cfg sim.Config, specName string, run int, sink func() sim.TraceSink) (o sim.Outcome, re *RunError, err error) {
	var s sim.TraceSink
	if sink != nil {
		s = sink()
		cfg.Trace = s
	}
	o, err, pan, stack := runOnce(cfg)
	if pan != nil {
		re = &RunError{
			Spec: specName, Run: run, Seed: cfg.Seed,
			Panic: fmt.Sprint(pan), Stack: string(stack),
		}
		if s != nil {
			closeSink(s)
			s = sink()
			cfg.Trace = s
		}
		o, err, pan, _ = runOnce(cfg)
		if pan != nil {
			re.Deterministic = true
			closeSink(s)
			return FailedOutcome(cfg), re, nil
		}
		if err != nil {
			// The retry surfaced a configuration error; the panic record is
			// moot — the batch aborts on err.
			re = nil
		}
	}
	closeSink(s)
	if err != nil {
		return sim.Outcome{}, nil, err
	}
	return o, re, nil
}

// closeSink closes a per-run trace sink if it is closable (file-backed
// JSONL sinks are; in-memory recorders are not). Close errors are
// deliberately non-fatal: tracing is observability, it never takes a run's
// outcome down with it.
func closeSink(s sim.TraceSink) {
	if c, ok := s.(io.Closer); ok {
		c.Close()
	}
}

// runOnce executes one simulation, converting a panic anywhere in the
// protocol/adversary/engine stack into a captured (panic value, stack)
// pair instead of crashing the batch. The stack is the panicking
// goroutine's: a panic the engine carried over from a shard lane brings
// its own.
func runOnce(cfg sim.Config) (o sim.Outcome, err error, pan any, stack []byte) {
	defer func() {
		if r := recover(); r != nil {
			pan, stack = r, debug.Stack()
			if lp, ok := r.(*sim.LanePanic); ok {
				stack = lp.Stack
			}
		}
	}()
	o, err = sim.Run(cfg)
	return
}

// FailedOutcome is the placeholder stored in a failed run's Outcomes
// slot: HorizonHit is set so every cutoff-aware statistic (medians,
// rates, fits) skips the slot without special-casing failures. Exported
// so the sweep service synthesizes the identical placeholder for runs
// whose cached record is a deterministic RunError.
func FailedOutcome(cfg sim.Config) sim.Outcome {
	o := sim.Outcome{N: cfg.N, F: cfg.F, Seed: cfg.Seed, Adversary: "none", HorizonHit: true}
	if cfg.Protocol != nil {
		o.Protocol = cfg.Protocol.Name()
	}
	if cfg.Adversary != nil {
		o.Adversary = cfg.Adversary.Name()
	}
	return o
}

func sortByRun(errs []*RunError) {
	sort.Slice(errs, func(i, j int) bool { return errs[i].Run < errs[j].Run })
}

// Times extracts T(O) from each outcome.
func Times(outs []sim.Outcome) []float64 {
	xs := make([]float64, len(outs))
	for i, o := range outs {
		xs[i] = o.Time
	}
	return xs
}

// Messages extracts M(O) from each outcome.
func Messages(outs []sim.Outcome) []float64 {
	xs := make([]float64, len(outs))
	for i, o := range outs {
		xs[i] = float64(o.Messages)
	}
	return xs
}

// FilterStrategy returns the outcomes whose adversary committed to the
// given strategy label (e.g. "2.1.0").
func FilterStrategy(outs []sim.Outcome, label string) []sim.Outcome {
	sel := make([]sim.Outcome, 0, len(outs))
	for _, o := range outs {
		if o.Strategy == label {
			sel = append(sel, o)
		}
	}
	return sel
}

// GatheredRate returns the fraction of outcomes that achieved rumor
// gathering (0 for an empty slice).
func GatheredRate(outs []sim.Outcome) float64 {
	if len(outs) == 0 {
		return 0
	}
	n := 0
	for _, o := range outs {
		if o.Gathered {
			n++
		}
	}
	return float64(n) / float64(len(outs))
}

// CutoffRate returns the fraction of outcomes cut off by the horizon or
// event limit; such outcomes must not enter complexity statistics.
// Stall-detected outcomes count — Outcome.Stalled implies HorizonHit — so
// cutoff-aware statistics skip them without special-casing.
func CutoffRate(outs []sim.Outcome) float64 {
	if len(outs) == 0 {
		return 0
	}
	n := 0
	for _, o := range outs {
		if o.HorizonHit {
			n++
		}
	}
	return float64(n) / float64(len(outs))
}

// StalledRate returns the fraction of outcomes ended by stall detection
// (Outcome.Stalled): the run made no progress for Config.StallWindow
// consecutive events — a fully partitioned network, say — and terminated
// early instead of spinning to the horizon. A stalled run is a completed,
// classified outcome, not a failure: it never enters Result.Errors, and
// because Stalled implies HorizonHit it is already excluded from
// complexity statistics.
func StalledRate(outs []sim.Outcome) float64 {
	if len(outs) == 0 {
		return 0
	}
	n := 0
	for _, o := range outs {
		if o.Stalled {
			n++
		}
	}
	return float64(n) / float64(len(outs))
}
