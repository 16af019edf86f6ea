package experiments

import (
	"fmt"
	"reflect"

	"github.com/ugf-sim/ugf/internal/core"
	"github.com/ugf-sim/ugf/internal/gossip"
	"github.com/ugf-sim/ugf/internal/plot"
	"github.com/ugf-sim/ugf/internal/sim"
	"github.com/ugf-sim/ugf/internal/xrand"
)

func init() {
	register(Experiment{
		ID:    "lemma1",
		Title: "Lemmas 1–3 — strategy indistinguishability during [1, τᵏ]",
		Plan:  unplanned(runLemma1),
	})
}

// runLemma1 validates the indistinguishability lemmas in their strongest
// executable form. The lemmas say the actions of every ρ ∈ Π∖C during the
// global time frame [1, τᵏ] are equally likely under Strategy 1, 2.k.0
// and 2.k.l. In this simulator a run is a pure function of its random
// streams, and during [1, τᵏ] no message from C reaches Π∖C under any of
// the three strategies — so with identical seeds the distributions are
// not merely equal, the send traces of Π∖C must be *bit-identical* across
// strategies. The experiment replays every seed under each strategy pair
// and compares the exact (from, to, step) send sequences in the window.
func runLemma1(cfg Config) (*Report, error) {
	rep := &Report{
		ID:    "lemma1",
		Title: "Strategy indistinguishability during [1, τᵏ]",
		Paper: "Lemma 1: Strategies 1 and 2.k.l are indistinguishable to Π∖C on [1, τᵏ]; " +
			"Lemmas 2–3 extend this across strategy pairs. Randomization therefore prevents " +
			"the protocol from adapting before the attack has committed.",
		Fidelity: cfg.Fidelity,
	}
	n := cfg.midN()
	f := int(0.3 * float64(n))
	tau := sim.Step(f) // the experimental setting τ = F, k = 1

	advs := []struct {
		name string
		adv  sim.Adversary
	}{
		{"strategy-1", core.Strategy1{}},
		{"strategy-2.1.0", core.Strategy2K0{}},
		{"strategy-2.1.1", core.Strategy2KL{}},
	}
	protos := []sim.Protocol{gossip.PushPull{}, gossip.EARS{}, gossip.SEARS{}}

	table := &plot.Table{
		Title:   fmt.Sprintf("exact window-trace equality across strategies (N=%d, F=%d, τ=%d)", n, f, tau),
		Columns: []string{"protocol", "pair", "seeds", "identical traces"},
	}
	allEqual := true
	seeds := cfg.runs()
	for _, proto := range protos {
		// traces[a][s] is the Π∖C send trace of seed s under adversary a.
		traces := make([][][]sim.SendRecord, len(advs))
		for ai, a := range advs {
			traces[ai] = make([][]sim.SendRecord, seeds)
			for s := 0; s < seeds; s++ {
				seed := xrand.Derive(cfg.seed(), uint64(s))
				tr, err := windowTrace(proto, a.adv, n, f, seed, tau)
				if err != nil {
					return nil, err
				}
				traces[ai][s] = tr
			}
		}
		for ai := 0; ai < len(advs); ai++ {
			for aj := ai + 1; aj < len(advs); aj++ {
				matches := 0
				for s := 0; s < seeds; s++ {
					if reflect.DeepEqual(traces[ai][s], traces[aj][s]) {
						matches++
					}
				}
				table.AddRow(proto.Name(),
					advs[ai].name+" vs "+advs[aj].name,
					seeds, matches)
				if matches != seeds {
					allEqual = false
				}
			}
		}
	}
	rep.Tables = append(rep.Tables, table)
	rep.Notef("window: global steps [1, τ] with τ = F = %d; traces restricted to Π∖C", f)
	rep.Notef("paper claim — Π∖C cannot distinguish the strategies before τᵏ: %s", verdict(allEqual))
	return rep, nil
}

// windowTrace runs (proto, adv) to the τ horizon and returns the sends of
// Π∖C with SentAt ≤ τ, in engine order.
func windowTrace(proto sim.Protocol, adv sim.Adversary, n, f int, seed uint64, tau sim.Step) ([]sim.SendRecord, error) {
	inC := make(map[sim.ProcID]bool, f/2)
	for _, p := range core.ControlledSet(sim.AdversaryRNG(seed), n, f) {
		inC[p] = true
	}
	var trace []sim.SendRecord
	sink := sim.FuncSink(func(ev sim.TraceEvent) {
		if ev.Kind == sim.TraceSend && ev.Step <= tau && !inC[ev.Proc] {
			trace = append(trace, sim.SendRecord{From: ev.Proc, To: ev.Other, SentAt: ev.Step})
		}
	})
	_, err := sim.Run(sim.Config{
		N: n, F: f,
		Protocol:  proto,
		Adversary: adv,
		Seed:      seed,
		// The lemma's window ends at τ: cutting the run there makes the
		// replay cheap; the horizon cutoff is expected, not an error.
		Horizon: tau,
		Trace:   sink,
	})
	if err != nil {
		return nil, err
	}
	return trace, nil
}
