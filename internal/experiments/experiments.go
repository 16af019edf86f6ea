// Package experiments defines one reproducible experiment per figure and
// table of "The Universal Gossip Fighter" (see DESIGN.md §3 for the full
// index). Every experiment is a plan: the simulation specs it needs, and
// the analysis that turns their results into tables, ASCII charts, and
// shape notes (log-log exponents, per-strategy maxima, gathering rates)
// that can be compared directly against the paper's claims. Run executes
// the plans of any set of experiments as one deduplicated batch.
package experiments

import (
	"context"
	"fmt"
	"sort"

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

// Config parameterizes an experiment's plan. How the planned runs
// execute — workers, journal, watchdog, tracing, the sweep service, the
// CLI's overlays — is the executor's business (Run).
type Config struct {
	Fidelity Fidelity
	// BaseSeed makes the whole experiment deterministic; 0 means 2022
	// (the paper's year — an arbitrary but memorable default).
	BaseSeed uint64
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
	// Plan returns the runs the experiment needs at cfg and the analysis
	// that turns their results, in spec order, into the report. One
	// closure rather than a Plan/Analyse pair: the analysis walks the same
	// grid and adversary loops the plan built, and shares them by capture
	// instead of repeating them.
	Plan func(cfg Config) ([]runner.Spec, func([]runner.Result) (*Report, error))
}

// unplanned adapts an experiment that computes outside the runner (a
// Monte Carlo over the sampling law, a traced replay): it plans no runs
// and does all its work in the analysis.
func unplanned(run func(Config) (*Report, error)) func(Config) ([]runner.Spec, func([]runner.Result) (*Report, error)) {
	return func(cfg Config) ([]runner.Spec, func([]runner.Result) (*Report, error)) {
		return nil, func([]runner.Result) (*Report, error) { return run(cfg) }
	}
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

// Run plans exps at cfg, executes all their runs as one batch — a
// single call of exec, so the pool never drains between experiments and a
// run two experiments share (runner.Fold's run key) is computed once —
// and analyses the results into one report per experiment, in the order
// of exps. exec is runner.ExecuteContext or service.ExecuteSpecs bound to
// the caller's options; it may edit the specs before running them (the
// CLI overlays). Within the batch each series is named "<experiment
// id>/<series name>", unique across experiments, so progress updates,
// run errors and trace files say which experiment a run belongs to.
//
// Failed or retried runs surface in their report's notes, ahead of the
// shape notes, instead of vanishing silently; the statistics use the
// surviving runs (failed slots carry HorizonHit placeholders, which every
// cutoff-aware summary already skips). On any error, including
// cancellation, Run returns no reports: with a journal in the executor's
// options the finished runs are recorded and a rerun resumes.
func Run(ctx context.Context, cfg Config, exps []Experiment, exec func(context.Context, []runner.Spec) ([]runner.Result, error)) ([]*Report, error) {
	var batch []runner.Spec
	sizes := make([]int, len(exps))
	analyses := make([]func([]runner.Result) (*Report, error), len(exps))
	for i, e := range exps {
		specs, analyse := e.Plan(cfg)
		for _, s := range specs {
			s.Name = e.ID + "/" + s.Name
			batch = append(batch, s)
		}
		sizes[i], analyses[i] = len(specs), analyse
	}
	results, err := exec(ctx, batch)
	if err != nil {
		return nil, err
	}
	reports := make([]*Report, len(exps))
	for i, analyse := range analyses {
		mine := results[:sizes[i]]
		results = results[sizes[i]:]
		rep, err := analyse(mine)
		if err != nil {
			return nil, fmt.Errorf("experiment %s: %w", exps[i].ID, err)
		}
		var notes []string
		for _, res := range mine {
			for j := range res.Outcomes {
				rep.Engine.Merge(&res.Outcomes[j].Stats)
				rep.EngineRuns++
			}
			if n := len(res.Errors); n > 0 {
				notes = append(notes, fmt.Sprintf("PARTIAL — series %q: %d/%d runs failed and were excluded (first: %v)",
					res.Spec.Name, n, res.Spec.Runs, res.Errors[0]))
			}
			if n := len(res.Flaky); n > 0 {
				notes = append(notes, fmt.Sprintf("series %q: %d run(s) recovered by a same-seed retry (environmental failures)",
					res.Spec.Name, n))
			}
		}
		rep.Notes = append(notes, rep.Notes...)
		reports[i] = rep
	}
	return reports, nil
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
