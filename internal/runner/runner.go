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
	// FromJournal marks a run served without recomputation — from the
	// journal, a result store, or an earlier job of the same batch with
	// the same run key; Journaled is the cumulative count of such runs.
	FromJournal bool
	Journaled   int
	// Err is set when this run failed deterministically.
	Err *RunError
}

// Options parameterizes a batch beyond the spec list. OnRun and Journal
// belong to the result contract and apply however the runs are executed;
// Workers, Trace and MaxWall configure the local worker pool and mean
// nothing to other dispatchers.
type Options struct {
	// Workers bounds run-level parallelism (≤ 0: GOMAXPROCS).
	Workers int
	// OnRun, when non-nil, is called after each finished run (completed,
	// failed, or served from the journal) with the run's identity and
	// cumulative batch counters — the feed behind live progress lines, ETA
	// estimates, and expvar metrics. It may be called concurrently from
	// several goroutines and must be fast; it runs on the goroutine that
	// finished the run.
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

// Config returns the configuration of the series' run-th repetition: Base
// with the derived seed.
func (s Spec) Config(run int) sim.Config {
	cfg := s.Base
	cfg.Seed = xrand.Derive(s.BaseSeed, uint64(run))
	return cfg
}

// Job addresses one run of a batch: repetition Run of specs[Series].
type Job struct{ Series, Run int }

// Done reports the result of jobs[i] to Fold: the run's outcome (ignored
// beside a deterministic RunError, nil when there is none), the RunError
// of a failed or retried attempt, and whether a result store served the
// run without computing it. It is safe for concurrent use and must be
// called at most once per job, with at least one of o and re set.
type Done func(i int, o *sim.Outcome, re *RunError, served bool)

// Dispatch executes the runs the journal could not serve, in any order
// and from any goroutine, reporting each through done. A non-nil error
// fails the whole batch.
type Dispatch func(ctx context.Context, jobs []Job, done Done) error

// Fold is the result contract of a batch, whoever computes its runs: one
// Result per spec with Outcomes in run order, every distinct run handed
// to dispatch at most once and folded back as it finishes. ExecuteContext
// folds over the local worker pool and the sweep service over a
// coordinator's lease queue, so local, remote and resumed sweeps render
// byte-identical artifacts.
//
//   - Every run is keyed by (Fingerprint of its spec, run index): the
//     series name and Runs are not part of the key, because neither
//     affects the run. A key the Journal holds is served from it; a key an
//     earlier job of the same batch already planned is served by that
//     job's result, reported in every series that contains it under that
//     series' own name. Only the remaining runs are dispatched.
//   - A run with a deterministic RunError, or with no outcome at all,
//     failed: it lands in Result.Errors, re-addressed to its series
//     coordinates, its Outcomes slot holds the FailedOutcome placeholder,
//     and the rest of the batch continues.
//   - A RunError beside an outcome is an incident a same-seed retry
//     recovered: the outcome is kept and the incident lands in Result.Flaky
//     — unless a store served the run. Stores hold outcomes and
//     deterministic failures only, so a served run is a clean outcome and
//     an incident is reported once, by the batch that saw it.
//   - An error from dispatch fails the batch, unless ctx was cancelled:
//     then Fold returns the partial results alongside ctx's error. With a
//     Journal attached every finished run has already been recorded, so a
//     rerun resumes where the batch stopped.
func Fold(ctx context.Context, specs []Spec, opts Options, dispatch Dispatch) ([]Result, error) {
	total := 0
	results := make([]Result, len(specs))
	for i, s := range specs {
		if s.Runs <= 0 {
			return nil, fmt.Errorf("runner: spec %q has Runs = %d", s.Name, s.Runs)
		}
		results[i] = Result{Spec: s, Outcomes: make([]sim.Outcome, s.Runs)}
		total += s.Runs
	}
	var (
		mu    sync.Mutex // guards tally and the Errors/Flaky appends
		tally RunUpdate  // the cumulative counters of the batch
		fps   = make([]string, len(specs))
	)
	// settle folds one finished run into its slot, the journal (nil for the
	// runs the journal or the batch already holds) and the OnRun feed.
	settle := func(j Job, o *sim.Outcome, re *RunError, served bool, journal *Journal) {
		s, res := &specs[j.Series], &results[j.Series]
		u := RunUpdate{Spec: s.Name, Run: j.Run, Seed: xrand.Derive(s.BaseSeed, uint64(j.Run)), Total: total, FromJournal: served}
		failed := re != nil && (re.Deterministic || o == nil)
		if re != nil {
			// Dispatchers may address a run their own way (the service: by
			// spec fingerprint); results use series coordinates.
			cp := *re
			cp.Spec, cp.Run, cp.Seed = u.Spec, u.Run, u.Seed
			re = &cp
		}
		if failed {
			o, u.Err = nil, re
		}
		if journal != nil && (failed && re.Deterministic || !failed && !o.Cancelled) {
			journal.Put(journalRecord{fps[j.Series], s.Name, j.Run, o, u.Err}) // a failed write is counted: Journal.WriteErrors
		}
		mu.Lock()
		switch {
		case failed:
			tally.Failed++
			res.Errors = append(res.Errors, re)
			res.Outcomes[j.Run] = FailedOutcome(s.Config(j.Run))
		case re != nil:
			tally.Flaky++
			res.Flaky = append(res.Flaky, re)
			fallthrough
		default:
			res.Outcomes[j.Run] = *o
		}
		if served {
			tally.Journaled++
		}
		tally.Done++
		u.Done, u.Failed, u.Flaky, u.Journaled = tally.Done, tally.Failed, tally.Flaky, tally.Journaled
		mu.Unlock()
		if opts.OnRun != nil {
			opts.OnRun(u)
		}
	}

	jobs := make([]Job, 0, total)
	planned := make(map[runKey]int, total) // → the key's index in jobs
	dups := map[int][]Job{}                // jobs[i] → the later jobs with its key
	for si := range specs {
		fps[si] = Fingerprint(specs[si]) // once per series: canonicalising is the costly part
		for r := 0; r < specs[si].Runs; r++ {
			j, key := Job{si, r}, runKey{fps[si], r}
			if opts.Journal != nil {
				if rec, ok := opts.Journal.Get(key); ok {
					settle(j, rec.Outcome, rec.Error, true, nil)
					continue
				}
			}
			if i, ok := planned[key]; ok {
				dups[i] = append(dups[i], j)
				continue
			}
			planned[key] = len(jobs)
			jobs = append(jobs, j)
		}
	}
	if len(jobs) > 0 {
		err := dispatch(ctx, jobs, func(i int, o *sim.Outcome, re *RunError, served bool) {
			if served && re != nil && !re.Deterministic && o != nil {
				re = nil // a store serves outcomes and failures, not old incidents
			}
			settle(jobs[i], o, re, served, opts.Journal)
			for _, d := range dups[i] {
				settle(d, o, re, true, nil)
			}
		})
		if err != nil && ctx.Err() == nil {
			return nil, err
		}
	}
	for i := range results {
		sortByRun(results[i].Errors)
		sortByRun(results[i].Flaky)
	}
	// On cancellation the results are partial: finished runs are valid (and
	// journaled, when a journal is attached); the rest never ran.
	return results, ctx.Err()
}

// ExecuteContext is Fold over a pool of worker goroutines running Attempt,
// which confines a panic to its run and classifies it by a same-seed retry.
//   - A configuration error (sim.Run returning an error) aborts the batch:
//     the spec itself is wrong, and every sibling run would fail
//     identically. Workers stop taking jobs instead of draining the queue
//     at full cost.
//   - Cancelling ctx stops the batch at the next run boundary and
//     interrupts in-flight runs at their next engine event boundary.
func ExecuteContext(ctx context.Context, specs []Spec, opts Options) ([]Result, error) {
	return Fold(ctx, specs, opts, func(ctx context.Context, jobs []Job, done Done) error {
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
			if workers /= maxShards; workers < 1 {
				workers = 1
			}
		}
		var (
			wg       sync.WaitGroup
			next     atomic.Int64 // index of the next job to take
			firstErr error
			errOnce  sync.Once
			stopped  atomic.Bool // batch failed: take no more jobs
		)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stopped.Load() && ctx.Err() == nil {
					i := int(next.Add(1)) - 1
					if i >= len(jobs) {
						return
					}
					spec, run := specs[jobs[i].Series], jobs[i].Run
					cfg := spec.Config(run)
					cfg.Cancel = ctx.Done()
					cfg.MaxWall = opts.MaxWall
					var sinkFn func() sim.TraceSink
					if opts.Trace != nil {
						sinkFn = func() sim.TraceSink { return opts.Trace(spec, run) }
					}
					o, re, err := Attempt(cfg, spec.Name, run, sinkFn)
					if err != nil {
						errOnce.Do(func() { firstErr = fmt.Errorf("runner: spec %q run %d: %w", spec.Name, run, err) })
						stopped.Store(true)
						return
					}
					done(i, &o, re, false)
				}
			}()
		}
		wg.Wait()
		return firstErr
	})
}

// Attempt executes one run with the pool's fault-isolation semantics,
// outside any pool — the primitive the worker loop and the sweep
// service's lease executor share, so a run leased over HTTP fails and
// retries exactly like a local one.
//
// A panic anywhere in the protocol/adversary/engine stack triggers one
// same-seed retry: a run is a pure function of its Config, so a second
// panic classifies the fault as deterministic (re.Deterministic is set
// and there is no outcome), while a
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
			return sim.Outcome{}, re, nil
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

// FailedOutcome is the placeholder Fold stores in a failed run's Outcomes
// slot: HorizonHit is set so every cutoff-aware statistic (medians,
// rates, fits) skips the slot without special-casing failures.
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
