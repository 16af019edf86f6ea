// Package experiments defines one reproducible experiment per figure and
// table of "The Universal Gossip Fighter" (see DESIGN.md §3 for the full
// index). Every experiment builds a batch of simulation specs, runs them
// on the parallel runner, and emits tables, ASCII charts, and shape notes
// (log-log exponents, per-strategy maxima, gathering rates) that can be
// compared directly against the paper's claims.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"time"

	"github.com/ugf-sim/ugf/internal/plot"
	"github.com/ugf-sim/ugf/internal/runner"
	"github.com/ugf-sim/ugf/internal/sim"
	"github.com/ugf-sim/ugf/internal/stats"
)

// Fidelity selects the experiment scale.
type Fidelity int

// Fidelity levels.
const (
	// Quick runs a reduced grid with few repetitions — used by tests and
	// by the testing.B bench harness. Seconds per experiment.
	Quick Fidelity = iota
	// Medium runs the paper's full N grid with 15 repetitions per point —
	// the default for regenerating EXPERIMENTS.md on a laptop.
	Medium
	// Full is the paper's setting: full grid, 50 repetitions.
	Full
)

func (f Fidelity) String() string {
	switch f {
	case Quick:
		return "quick"
	case Medium:
		return "medium"
	case Full:
		return "full"
	default:
		return fmt.Sprintf("fidelity(%d)", int(f))
	}
}

// ParseFidelity converts a flag value into a Fidelity.
func ParseFidelity(s string) (Fidelity, error) {
	switch s {
	case "quick":
		return Quick, nil
	case "medium":
		return Medium, nil
	case "full":
		return Full, nil
	default:
		return 0, fmt.Errorf("experiments: unknown fidelity %q (quick|medium|full)", s)
	}
}

// Config parameterizes an experiment run.
type Config struct {
	Fidelity Fidelity
	// Workers bounds run-level parallelism (≤ 0: GOMAXPROCS).
	Workers int
	// Shards sets in-run commit parallelism — sim.Config.Workers — on
	// every spec (≤ 1: every step runs on the run's own goroutine).
	// Outcomes are bit-identical either way; sharding trades run-level for in-run parallelism, which pays
	// off when single runs are huge (big N) rather than numerous. When
	// Workers is defaulted, the runner divides its run-level fan-out by
	// the shard count so the product stays at GOMAXPROCS.
	Shards int
	// BaseSeed makes the whole experiment deterministic; 0 means 2022
	// (the paper's year — an arbitrary but memorable default).
	BaseSeed uint64
	// OnRun, when non-nil, receives the runner's rich per-run updates
	// (identity, cumulative failure counts, journal hits) — the feed behind
	// ugfbench's live status line and expvar metrics.
	OnRun func(u runner.RunUpdate)
	// Trace, when non-nil, supplies a per-run trace sink (ugfbench -trace);
	// see runner.Options.Trace for the lifecycle contract.
	Trace func(spec runner.Spec, run int) sim.TraceSink
	// Context cancels the experiment cooperatively: between runs and, via
	// the engine's event-boundary polling, inside delay-heavy runs. nil
	// means context.Background(). On cancellation Run returns the
	// context's error; with a Journal attached, completed runs are already
	// recorded and a rerun resumes where the sweep stopped.
	Context context.Context
	// Journal, when non-nil, records every finished run and serves
	// recorded ones without recomputation (ugfbench -resume).
	Journal *runner.Journal
	// MaxWall is the per-run wall-clock watchdog (0: none); runs stopped
	// by it count as cutoffs and never enter complexity statistics.
	MaxWall time.Duration
	// Faults, when non-nil, overlays a link-fault plan on every spec that
	// does not set its own (ugfbench -faults): the whole sweep runs over
	// the same lossy network. Experiments that sweep fault rates
	// themselves (degradation) keep their per-spec plans.
	Faults *sim.FaultPlan
	// StallWindow, when > 0, overlays a stall window on every spec that
	// does not set its own (ugfbench -stall-window), so fault-heavy sweeps
	// terminate with classified Stalled outcomes instead of spinning to
	// the event horizon.
	StallWindow int64
	// Topology, when non-nil, overlays a communication graph on every spec
	// that does not set its own (ugfbench -topology). Experiments that
	// sweep topologies themselves keep their per-spec graphs.
	Topology *sim.Topology
	// MaxEvents, when > 0, overlays a hard event cutoff on every spec that
	// does not set its own (ugfbench -max-events) — the termination bound
	// to pair with StallWindow on sparse topologies, where neighbor
	// traffic can keep the stall signature moving forever.
	MaxEvents int64
	// Exec, when non-nil, replaces runner.ExecuteContext as the batch
	// executor — ugfbench -coord plugs the sweep service's remote executor
	// in here. Implementations get the runner.Result contract (ordering,
	// error classification, journal integration) from runner.Fold, so
	// downstream artifacts stay byte-identical.
	Exec func(ctx context.Context, specs []runner.Spec, opts runner.Options) ([]runner.Result, error)
}

func (c Config) context() context.Context {
	if c.Context == nil {
		return context.Background()
	}
	return c.Context
}

func (c Config) seed() uint64 {
	if c.BaseSeed == 0 {
		return 2022
	}
	return c.BaseSeed
}

// grid returns the N values for Figure 3-style sweeps.
func (c Config) grid() []int {
	if c.Fidelity == Quick {
		return []int{10, 20, 40, 60}
	}
	// Section V-A1.
	return []int{10, 20, 30, 50, 70, 100, 200, 300, 400, 500}
}

// runs returns the repetition count per grid point.
func (c Config) runs() int {
	switch c.Fidelity {
	case Quick:
		return 8
	case Medium:
		return 15
	default:
		return 50 // Section V: "median over 50 runs"
	}
}

// Report is an experiment's output.
type Report struct {
	ID    string
	Title string
	// Paper states what the original reports for this artifact.
	Paper string
	// Tables and Charts carry the regenerated data.
	Tables []*plot.Table
	Charts []plot.Chart
	// Notes are machine-checked shape findings (fits, maxima, rates).
	Notes []string
	// Fidelity the report was generated at.
	Fidelity Fidelity
	// Engine aggregates the engine-level Stats counters over every run the
	// experiment executed (scheduler events, messages by kind, adversary
	// interventions, wall time per phase) — the data behind ugfbench
	// -stats. Journal-served runs contribute their recorded stats.
	Engine sim.Stats
	// EngineRuns is the number of outcomes aggregated into Engine.
	EngineRuns int
}

// Notef appends a formatted note.
func (r *Report) Notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Experiment is a registered, named reproduction target.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) (*Report, error)
}

var registry []Experiment

func register(e Experiment) {
	registry = append(registry, e)
}

// canonicalOrder follows the paper's presentation: Figure 3 panels, then
// the in-text theory claims, then the secondary claims and extensions.
// Registration order is per-file and therefore arbitrary.
var canonicalOrder = map[string]int{
	"fig3a": 0, "fig3b": 1, "fig3c": 2, "fig3d": 3, "fig3e": 4,
	"example1": 5, "lemma45": 6, "lemma1": 7, "tradeoff": 8,
	"fsweep": 9, "strategies": 10, "oblivious": 11,
	"adaptation": 12, "omission": 13, "tuning": 14, "degradation": 15,
	"topology": 16,
}

// All returns every experiment in the paper's presentation order;
// experiments without a canonical rank (none today) sort last.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.SliceStable(out, func(i, j int) bool {
		ri, iok := canonicalOrder[out[i].ID]
		rj, jok := canonicalOrder[out[j].ID]
		if !iok {
			ri = len(canonicalOrder)
		}
		if !jok {
			rj = len(canonicalOrder)
		}
		return ri < rj
	})
	return out
}

// IDs lists the registered experiment ids in presentation order.
func IDs() []string {
	all := All()
	ids := make([]string, len(all))
	for i, e := range all {
		ids[i] = e.ID
	}
	return ids
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// execute runs specs on the parallel runner with the experiment's
// cancellation, journaling, and watchdog settings, then annotates rep so
// that failed or retried runs surface in the report instead of vanishing
// silently — the statistics downstream use the surviving runs (failed
// slots carry HorizonHit placeholders, which every cutoff-aware summary
// already skips).
func execute(rep *Report, cfg Config, specs []runner.Spec) ([]runner.Result, error) {
	if cfg.Shards > 0 {
		for i := range specs {
			specs[i].Base.Workers = cfg.Shards
		}
	}
	for i := range specs {
		if cfg.Faults != nil && specs[i].Base.Faults == nil {
			specs[i].Base.Faults = cfg.Faults
		}
		if cfg.StallWindow > 0 && specs[i].Base.StallWindow == 0 {
			specs[i].Base.StallWindow = cfg.StallWindow
		}
		if cfg.Topology != nil && specs[i].Base.Topology == nil {
			specs[i].Base.Topology = cfg.Topology
		}
		if cfg.MaxEvents > 0 && specs[i].Base.MaxEvents == 0 {
			specs[i].Base.MaxEvents = cfg.MaxEvents
		}
	}
	exec := cfg.Exec
	if exec == nil {
		exec = runner.ExecuteContext
	}
	results, err := exec(cfg.context(), specs, runner.Options{
		Workers: cfg.Workers,
		OnRun:   cfg.OnRun,
		Trace:   cfg.Trace,
		Journal: cfg.Journal,
		MaxWall: cfg.MaxWall,
	})
	if err != nil {
		return nil, err
	}
	for _, res := range results {
		for i := range res.Outcomes {
			rep.Engine.Merge(&res.Outcomes[i].Stats)
			rep.EngineRuns++
		}
		if n := len(res.Errors); n > 0 {
			rep.Notef("PARTIAL — series %q: %d/%d runs failed and were excluded (first: %v)",
				res.Spec.Name, n, res.Spec.Runs, res.Errors[0])
		}
		if n := len(res.Flaky); n > 0 {
			rep.Notef("series %q: %d run(s) recovered by a same-seed retry (environmental failures)",
				res.Spec.Name, n)
		}
	}
	return results, nil
}

// medianOf summarizes a metric over non-cutoff outcomes, returning the
// median with the Q1/Q3 band the paper shades around its curves.
func medianOf(outs []sim.Outcome, metric func([]sim.Outcome) []float64) (median, q1, q3 float64) {
	kept := make([]sim.Outcome, 0, len(outs))
	for _, o := range outs {
		if !o.HorizonHit {
			kept = append(kept, o)
		}
	}
	xs := metric(kept)
	if len(xs) == 0 {
		return 0, 0, 0
	}
	return stats.Quantile(xs, 0.5), stats.Quantile(xs, 0.25), stats.Quantile(xs, 0.75)
}
