package experiments

import (
	"fmt"

	"github.com/ugf-sim/ugf/internal/core"
	"github.com/ugf-sim/ugf/internal/gossip"
	"github.com/ugf-sim/ugf/internal/plot"
	"github.com/ugf-sim/ugf/internal/runner"
	"github.com/ugf-sim/ugf/internal/sim"
	"github.com/ugf-sim/ugf/internal/stats"
)

// Figure 3: communication complexities of Push-Pull, EARS and SEARS with
// (1) no adversary, (2) UGF, and (3) the fixed strategy with the most
// impact ("max UGF"). Experimental setting from Section V-A: F = 0.3N,
// q₁ = 1/3, q₂ = 1/2, k = l = 1, τ = F, median over 50 runs with Q1/Q3
// bands.

// metric selects what a panel measures.
type metric struct {
	name    string
	extract func([]sim.Outcome) []float64
}

var (
	timeMetric = metric{name: "time complexity", extract: runner.Times}
	msgMetric  = metric{name: "message complexity", extract: runner.Messages}
)

// fig3Panel describes one panel of Figure 3.
type fig3Panel struct {
	id       string
	figure   string
	protocol sim.Protocol
	metric   metric
	// maxAdv is the fixed strategy the paper designates as having the
	// most impact on this panel's metric.
	maxAdv   sim.Adversary
	maxLabel string
	paper    string
}

func init() {
	panels := []fig3Panel{
		{
			id: "fig3a", figure: "Figure 3a", protocol: gossip.PushPull{},
			metric: timeMetric, maxAdv: core.Strategy1{}, maxLabel: "strategy-1",
			paper: "Push-Pull time complexity: logarithmic baseline, linear under UGF; Strategy 1 is the maximal fixed strategy.",
		},
		{
			id: "fig3b", figure: "Figure 3b", protocol: gossip.EARS{},
			metric: timeMetric, maxAdv: core.Strategy2K0{}, maxLabel: "strategy-2.1.0",
			paper: "EARS time complexity: logarithmic baseline, linear under UGF; Strategy 2.1.0 is the maximal fixed strategy.",
		},
		{
			id: "fig3c", figure: "Figure 3c", protocol: gossip.PushPull{},
			metric: msgMetric, maxAdv: core.Strategy2KL{}, maxLabel: "strategy-2.1.1",
			paper: "Push-Pull message complexity: quasi-linear baseline, quadratic under UGF; Strategy 2.1.1 is the maximal fixed strategy.",
		},
		{
			id: "fig3d", figure: "Figure 3d", protocol: gossip.EARS{},
			metric: msgMetric, maxAdv: core.Strategy2KL{}, maxLabel: "strategy-2.1.1",
			paper: "EARS message complexity: quasi-linear baseline, quadratic under UGF; Strategy 2.1.1 is the maximal fixed strategy.",
		},
		{
			id: "fig3e", figure: "Figure 3e", protocol: gossip.SEARS{},
			metric: msgMetric, maxAdv: core.Strategy2KL{}, maxLabel: "strategy-2.1.1",
			paper: "SEARS message complexity: already quadratic without attack (time is constant by construction and omitted); Strategy 2.1.1 is the maximal fixed strategy.",
		},
	}
	for _, p := range panels {
		p := p
		register(Experiment{
			ID:    p.id,
			Title: fmt.Sprintf("%s — %s %s", p.figure, p.protocol.Name(), p.metric.name),
			Plan:  p.plan,
		})
	}
}

// fig3Series returns the three adversary series of every panel.
func fig3Series() []struct {
	name string
	adv  func(panel fig3Panel) sim.Adversary
} {
	return []struct {
		name string
		adv  func(panel fig3Panel) sim.Adversary
	}{
		{"baseline", func(fig3Panel) sim.Adversary { return nil }},
		{"ugf", func(fig3Panel) sim.Adversary { return core.UGF{FixedK: 1, FixedL: 1} }},
		{"max-ugf", func(p fig3Panel) sim.Adversary { return p.maxAdv }},
	}
}

// plan is the panel's experiment: the three adversary series over the N
// grid, analysed into the panel's table, chart and shape notes.
func (panel fig3Panel) plan(cfg Config) ([]runner.Spec, func([]runner.Result) (*Report, error)) {
	rep := &Report{
		ID:       panel.id,
		Title:    fmt.Sprintf("%s — %s %s", panel.figure, panel.protocol.Name(), panel.metric.name),
		Paper:    panel.paper,
		Fidelity: cfg.Fidelity,
	}
	grid := cfg.grid()
	series := fig3Series()

	var specs []runner.Spec
	for _, n := range grid {
		f := int(0.3 * float64(n))
		for _, s := range series {
			specs = append(specs, runner.Spec{
				Name: fmt.Sprintf("%s/N=%d", s.name, n),
				Base: sim.Config{
					N: n, F: f,
					Protocol:  panel.protocol,
					Adversary: s.adv(panel),
					MaxEvents: 200_000_000,
				},
				Runs:     cfg.runs(),
				BaseSeed: cfg.seed(),
			})
		}
	}
	return specs, func(results []runner.Result) (*Report, error) {
		table := &plot.Table{
			Title:   rep.Title,
			Columns: []string{"N", "F", "series", "median", "Q1", "Q3", "gathered", "cutoff", "failed"},
		}
		curve := map[string][]float64{}
		xs := make([]float64, 0, len(grid))
		for _, n := range grid {
			xs = append(xs, float64(n))
		}
		idx := 0
		for _, n := range grid {
			f := int(0.3 * float64(n))
			for _, s := range series {
				res := results[idx]
				idx++
				med, q1, q3 := medianOf(res.Outcomes, panel.metric.extract)
				table.AddRow(n, f, s.name, med, q1, q3,
					plot.FormatFloat(runner.GatheredRate(res.Outcomes)),
					plot.FormatFloat(runner.CutoffRate(res.Outcomes)),
					res.Failed())
				curve[s.name] = append(curve[s.name], med)
			}
		}
		rep.Tables = append(rep.Tables, table)

		chart := plot.Chart{
			Title:  rep.Title + " (median)",
			XLabel: "N",
			YLabel: panel.metric.name,
			Xs:     xs,
			LogY:   panel.metric.name == msgMetric.name,
		}
		for _, s := range series {
			chart.Series = append(chart.Series, plot.Series{Name: s.name, Ys: curve[s.name]})
		}
		rep.Charts = append(rep.Charts, chart)

		annotateFig3Shape(rep, panel, xs, curve)
		return rep, nil
	}
}

// annotateFig3Shape records the log-log growth exponent of every series
// and states whether the panel reproduces the paper's qualitative claim.
// Claims are judged on the *tail* exponent (the upper half of the N grid):
// the attacked curves carry additive constants — the inactivity window,
// normalization offsets — that flatten small-N points without changing
// the asymptotic order.
func annotateFig3Shape(rep *Report, panel fig3Panel, xs []float64, curve map[string][]float64) {
	tail := map[string]float64{}
	for _, name := range []string{"baseline", "ugf", "max-ugf"} {
		full := stats.LogLogFit(xs, curve[name])
		half := len(xs) / 2
		tailFit := stats.LogLogFit(xs[half:], curve[name][half:])
		tail[name] = tailFit.Slope
		rep.Notef("%s growth exponent over N: %.2f full grid (R²=%.2f), %.2f on the tail",
			name, full.Slope, full.R2, tailFit.Slope)
	}
	// quadraticAt reports whether a series reaches quadratic magnitude at
	// the largest N: median M ≥ N²/4. Exponent and magnitude are judged
	// together — the attacked curves sit at 0.6–2×N² across the grid with
	// a slowly decaying coefficient, so their tail exponent reads slightly
	// below 2 even though the level is unmistakably quadratic.
	quadraticAt := func(name string) bool {
		n := xs[len(xs)-1]
		ys := curve[name]
		return ys[len(ys)-1] >= n*n/4
	}
	switch panel.metric.name {
	case timeMetric.name:
		// Paper: baseline time ~ logarithmic (tail exponent ≪ 1),
		// attacked time ~ linear (tail exponent approaching 1).
		rep.Notef("paper claim — baseline sub-linear, max-UGF linear: %s",
			verdict(tail["baseline"] < 0.55 && tail["max-ugf"] > 0.7))
	case msgMetric.name:
		if panel.id == "fig3e" {
			// SEARS is quadratic even unattacked.
			rep.Notef("paper claim — SEARS baseline already ~quadratic: %s",
				verdict(tail["baseline"] > 1.45 && quadraticAt("baseline")))
		} else {
			rep.Notef("paper claim — baseline ~quasi-linear, max-UGF ~quadratic "+
				"(tail exponent ≥ 1.45 and median M(N_max) ≥ N²/4): %s",
				verdict(tail["baseline"] < 1.45 && tail["max-ugf"] >= 1.45 && quadraticAt("max-ugf")))
		}
	}
}

func verdict(ok bool) string {
	if ok {
		return "REPRODUCED"
	}
	return "NOT reproduced"
}
