package experiments

import (
	"fmt"

	"github.com/ugf-sim/ugf/internal/adversary"
	"github.com/ugf-sim/ugf/internal/gossip"
	"github.com/ugf-sim/ugf/internal/plot"
	"github.com/ugf-sim/ugf/internal/runner"
	"github.com/ugf-sim/ugf/internal/sim"
)

func init() {
	register(Experiment{
		ID:    "degradation",
		Title: "Fault-model extension — degradation under lossy links and crash-recovery",
		Plan:  planDegradation,
	})
}

// degradationDrops is the omission-rate grid of the degradation sweep.
var degradationDrops = []float64{0, 0.1, 0.3, 0.5}

// planDegradation measures how gracefully Push-Pull and EARS degrade when
// the network itself is faulty — per-message omission at increasing rates,
// and a crash-recovery churn adversary — rather than under the paper's
// delay-based adversaries. The paper's model keeps the network reliable
// (Section II); this extension asks how far each protocol's redundancy
// carries it once that assumption is dropped, and doubles as the
// end-to-end exercise of the stall detector: every spec sets a stall
// window, and a stalled run must surface as a classified outcome, never a
// sweep failure.
func planDegradation(cfg Config) ([]runner.Spec, func([]runner.Result) (*Report, error)) {
	rep := &Report{
		ID:       "degradation",
		Title:    "Degradation under omission faults and crash-recovery",
		Paper:    "Extension beyond the paper's reliable-network model (Section II assumes every sent message is delivered within the delay bound).",
		Fidelity: cfg.Fidelity,
	}
	n := cfg.midN()
	f := int(0.3 * float64(n))
	protos := []sim.Protocol{gossip.PushPull{}, gossip.EARS{}}

	// The stall window is generous — several times the event count of a
	// clean run — so it only trips on genuine no-progress spinning, not on
	// slow dissemination through a lossy network.
	const stallWindow = 1 << 20

	type faultCase struct {
		name string
		drop float64
		adv  sim.Adversary
	}
	var fcases []faultCase
	for _, d := range degradationDrops {
		fcases = append(fcases, faultCase{name: fmt.Sprintf("drop=%.0f%%", 100*d), drop: d})
	}
	fcases = append(fcases, faultCase{name: "crash-recovery", adv: adversary.CrashRecovery{}})

	var specs []runner.Spec
	for _, proto := range protos {
		for _, fc := range fcases {
			base := sim.Config{
				N: n, F: f, Protocol: proto, Adversary: fc.adv,
				MaxEvents: 200_000_000, StallWindow: stallWindow,
			}
			if fc.drop > 0 {
				base.Faults = &sim.FaultPlan{Seed: cfg.seed(), Drop: fc.drop}
			}
			specs = append(specs, runner.Spec{
				Name:     proto.Name() + "/" + fc.name,
				Base:     base,
				Runs:     cfg.runs(),
				BaseSeed: cfg.seed(),
			})
		}
	}
	return specs, func(results []runner.Result) (*Report, error) {
		table := &plot.Table{
			Title:   fmt.Sprintf("dissemination under network faults (N=%d, F=%d)", n, f),
			Columns: []string{"protocol", "fault", "median T", "median M", "gathered", "stalled", "cutoff", "failed"},
		}
		curve := map[string][]float64{}
		gathered := map[string][]float64{}
		graceful := true
		idx := 0
		for _, proto := range protos {
			for _, fc := range fcases {
				res := results[idx]
				idx++
				mT, _, _ := medianOf(res.Outcomes, runner.Times)
				mM, _, _ := medianOf(res.Outcomes, runner.Messages)
				table.AddRow(proto.Name(), fc.name, mT, mM,
					plot.FormatFloat(runner.GatheredRate(res.Outcomes)),
					plot.FormatFloat(runner.StalledRate(res.Outcomes)),
					plot.FormatFloat(runner.CutoffRate(res.Outcomes)),
					res.Failed())
				if fc.adv == nil {
					curve[proto.Name()] = append(curve[proto.Name()], mT)
					gathered[proto.Name()] = append(gathered[proto.Name()], runner.GatheredRate(res.Outcomes))
				}
				// Graceful degradation = the sweep completes every run: faults
				// shift the complexity medians but never produce an engine error,
				// and any starved run is classified as stalled, not failed.
				if res.Failed() > 0 {
					graceful = false
				}
			}
		}
		rep.Tables = append(rep.Tables, table)

		chart := plot.Chart{
			Title:  "median T vs omission rate",
			XLabel: "drop probability",
			YLabel: "time T(O)",
			Xs:     degradationDrops,
		}
		for _, proto := range protos {
			chart.Series = append(chart.Series, plot.Series{Name: proto.Name(), Ys: curve[proto.Name()]})
		}
		rep.Charts = append(rep.Charts, chart)

		annotateDegradation(rep, protos, curve, gathered, graceful)
		return rep, nil
	}
}

// annotateDegradation records the shape findings: losses slow
// dissemination monotonically (time medians rise with the drop rate), the
// protocols' redundancy — not any retransmission logic, which none of
// them has — decides whether gathering survives the loss, and the engine
// degrades gracefully (no run errors; starvation surfaces as the Stalled
// classification).
func annotateDegradation(rep *Report, protos []sim.Protocol, curve, gathered map[string][]float64, graceful bool) {
	maxDrop := 100 * degradationDrops[len(degradationDrops)-1]
	for _, proto := range protos {
		ys := curve[proto.Name()]
		if len(ys) == 0 {
			continue
		}
		degraded := ys[len(ys)-1] >= ys[0]
		rep.Notef("%s: median T %.1f at drop=0%% → %.1f at drop=%.0f%% — redundancy absorbs losses at a time cost %s",
			proto.Name(), ys[0], ys[len(ys)-1], maxDrop, verdict(degraded))
	}
	if pp, ea := gathered[gossip.PushPull{}.Name()], gathered[gossip.EARS{}.Name()]; len(pp) > 0 && len(ea) > 0 {
		rep.Notef("observation: at drop=%.0f%% EARS still gathers %.0f%% of rumors while Push-Pull gathers %.0f%% — "+
			"EARS keeps every informed process sending until it sleeps, so lost copies are re-sent for free, "+
			"while Push-Pull's one-shot pull replies have no second chance",
			maxDrop, 100*ea[len(ea)-1], 100*pp[len(pp)-1])
	}
	rep.Notef("graceful degradation — every faulty run completes with a classified outcome (no engine errors, stalls detected): %s",
		verdict(graceful))
}
