package experiments

import (
	"fmt"

	"github.com/ugf-sim/ugf/internal/core"
	"github.com/ugf-sim/ugf/internal/plot"
	"github.com/ugf-sim/ugf/internal/runner"
	"github.com/ugf-sim/ugf/internal/sim"
)

func init() {
	register(Experiment{
		ID:    "tuning",
		Title: "Section III-B — tuning q₁, q₂ with prior knowledge",
		Plan:  planTuning,
	})
}

// planTuning quantifies the paper's remark that q₁ and q₂ "may be tuned …
// if there is prior knowledge about the gossip protocol to attack": a UGF
// biased toward the strategy that hurts a known protocol most beats the
// knowledge-free uniform mixture on that protocol — while the uniform
// mixture is the safe choice across all protocols.
func planTuning(cfg Config) ([]runner.Spec, func([]runner.Result) (*Report, error)) {
	rep := &Report{
		ID:    "tuning",
		Title: "Tuned vs uniform UGF",
		Paper: "\"One may tune these parameters to change the probability of applying some specific strategies, " +
			"e.g. if there is prior knowledge about the gossip protocol to attack. Without prior knowledge, the " +
			"safe choice is to make all these strategies equiprobable\" (Section III-B).",
		Fidelity: cfg.Fidelity,
	}
	n := cfg.midN()
	f := int(0.3 * float64(n))
	// Attack variants: the uniform mixture and two "informed" tunings.
	// Probability parameters live in (0,1), so "almost always" stands in
	// for "always" (the standalone strategies cover the limit case).
	const nearly = 0.999
	const rarely = 0.001
	attacks := []struct {
		name string
		adv  sim.Adversary
	}{
		{"uniform (q1=1/3, q2=1/2)", core.UGF{FixedK: 1, FixedL: 1}},
		{"tuned to time (q1≈0, q2≈1 → 2.k.0)", core.UGF{Q1: rarely, Q2: nearly, FixedK: 1, FixedL: 1}},
		{"tuned to messages (q1≈0, q2≈0 → 2.k.l)", core.UGF{Q1: rarely, Q2: rarely, FixedK: 1, FixedL: 1}},
	}
	protos := threeProtocols()

	var specs []runner.Spec
	for _, proto := range protos {
		for _, a := range attacks {
			specs = append(specs, runner.Spec{
				Name: proto.Name() + "/" + a.name,
				Base: sim.Config{N: n, F: f, Protocol: proto, Adversary: a.adv,
					MaxEvents: 100_000_000},
				Runs:     cfg.runs(),
				BaseSeed: cfg.seed(),
			})
		}
	}
	return specs, func(results []runner.Result) (*Report, error) {
		table := &plot.Table{
			Title:   fmt.Sprintf("prior knowledge pays (N=%d, F=%d)", n, f),
			Columns: []string{"protocol", "attack", "median T", "median M"},
		}
		type cell struct{ t, m float64 }
		vals := map[string]cell{}
		idx := 0
		for _, proto := range protos {
			for _, a := range attacks {
				outs := results[idx].Outcomes
				idx++
				mT, _, _ := medianOf(outs, runner.Times)
				mM, _, _ := medianOf(outs, runner.Messages)
				vals[proto.Name()+"/"+a.name] = cell{mT, mM}
				table.AddRow(proto.Name(), a.name, mT, mM)
			}
		}
		rep.Tables = append(rep.Tables, table)

		// EARS is the protocol where the split is clearest: 2.k.0 maximizes
		// its time, 2.k.l its messages (the `strategies` experiment).
		uni := vals["ears/"+attacks[0].name]
		timeTuned := vals["ears/"+attacks[1].name]
		msgTuned := vals["ears/"+attacks[2].name]
		rep.Notef("EARS median T: uniform %.1f vs time-tuned %.1f; median M: uniform %.0f vs message-tuned %.0f",
			uni.t, timeTuned.t, uni.m, msgTuned.m)
		rep.Notef("paper claim — tuned UGF beats the uniform mixture on its target metric: %s",
			verdict(timeTuned.t > uni.t && msgTuned.m > uni.m))
		return rep, nil
	}
}
