package spec

import (
	"reflect"
	"testing"

	"github.com/ugf-sim/ugf/internal/adversary"
	"github.com/ugf-sim/ugf/internal/core"
	"github.com/ugf-sim/ugf/internal/gossip"
	"github.com/ugf-sim/ugf/internal/sim"
)

// TestRegistryFingerprintsPinned pins, as literals, the fingerprint of
// every registry default and of one tuned instance per parameterised type,
// plus the Names order of both registries. Journals and result caches are
// keyed by these values: Extract's rule (exact default match, else the
// first same-type entry in Names order) and the Names order itself decide
// them, so a registry refactor that moves either one fails here instead of
// silently orphaning every stored run. The two tuned core.UGF rows are the
// ones that move when "ugf" and "ugf-sampled" swap places. The spec rows
// pin every optional run field, so removing or adding an elided field
// shows here if it moves any stored key.
func TestRegistryFingerprintsPinned(t *testing.T) {
	if got, want := gossip.Names(), []string{"adaptive", "broadcast", "budget-capped", "doubling",
		"ears", "pull", "push", "push-pull", "round-robin", "sears"}; !reflect.DeepEqual(got, want) {
		t.Errorf("gossip.Names() = %q, want %q", got, want)
	}
	if got, want := adversary.Names(), []string{"none", "ugf", "ugf-sampled", "strategy-1", "strategy-2.1.0",
		"strategy-2.1.1", "oblivious", "omission", "partition", "crash-recovery", "rewire"}; !reflect.DeepEqual(got, want) {
		t.Errorf("adversary.Names() = %q, want %q", got, want)
	}

	type row struct {
		label string
		p     sim.Protocol
		a     sim.Adversary
		want  string
	}
	pp := gossip.PushPull{}
	rows := []row{
		{"tuned adaptive", gossip.Adaptive{GiveUpFactor: 3}, nil, "16228c372e646b1c"},
		{"tuned budget-capped", gossip.BudgetCapped{Alpha: 3}, nil, "aa1245b2227507e6"},
		{"tuned ears", gossip.EARS{WindowScale: 2}, nil, "f26aa05fd4bba9fb"},
		{"tuned push", gossip.Push{WindowScale: 2}, nil, "03817920773ebfa8"},
		{"tuned sears", gossip.SEARS{C: 2, Epsilon: 0.5}, nil, "f014235e8541f41e"},
		{"tuned ugf, fixed exponents", pp, core.UGF{FixedK: 2, FixedL: 1}, "e4ee39b24584e4b8"},
		{"tuned ugf, sampled exponents", pp, core.UGF{Q1: 0.25}, "1c3b4566211a5b95"},
		{"tuned strategy-2.k.0", pp, core.Strategy2K0{K: 2}, "c25fa7b8464a246d"},
		{"tuned strategy-2.k.l", pp, core.Strategy2KL{K: 2, L: 3}, "cee8105d62414fb7"},
		{"tuned oblivious", pp, adversary.Oblivious{MaxTime: 50}, "7a4b3d9caff18be7"},
		{"tuned omission", pp, adversary.Omission{DropBudget: 10}, "b54249653b265045"},
		{"tuned partition", pp, adversary.Partition{Classes: 3, Permanent: true}, "d972edd7e9685933"},
		{"tuned crash-recovery", pp, adversary.CrashRecovery{Downtime: 7}, "5e80c9dfcc8d03fe"},
		{"tuned rewire", pp, adversary.Rewire{Budget: 5, Drop: 0.5}, "c4de2b257ca7957b"},
	}
	for name, want := range map[string]string{
		"adaptive": "2e889b2159f21391", "broadcast": "e8bcdd332bd39cc4", "budget-capped": "f6859f12e21c470a",
		"doubling": "4f6dd71f1a2acead", "ears": "d584eb9c883d9d70", "pull": "023ce84df02fe50a",
		"push": "a85950fba91cc1df", "push-pull": "9bde6aa9769d6411", "round-robin": "36d9929f9f9c8522",
		"sears": "e5d541699f6b5f55",
	} {
		rows = append(rows, row{"protocol " + name, gossip.MustByName(name), nil, want})
	}
	for name, want := range map[string]string{
		"none": "9bde6aa9769d6411", "ugf": "f4d4d5161905ad19", "ugf-sampled": "13ffdd41ff2f2936",
		"strategy-1": "7d00d62a41ccb7f8", "strategy-2.1.0": "f77df37fd696555a", "strategy-2.1.1": "4426341d93fc8af1",
		"oblivious": "ed4ff9596d98b07f", "omission": "0e73477d23d439fe", "partition": "8653183e56868dad",
		"crash-recovery": "0c45768e0b4bfd0a", "rewire": "aaaabd98dc3bc403",
	} {
		rows = append(rows, row{"adversary " + name, pp, adversary.MustByName(name), want})
	}
	if want := len(gossip.Names()) + len(adversary.Names()) + 14; len(rows) != want {
		t.Errorf("table has %d rows, want %d: a registry entry is not pinned", len(rows), want)
	}
	check := func(label string, sp Spec, want string) {
		t.Helper()
		if got := sp.Fingerprint(); got != want {
			js, _ := sp.CanonicalJSON()
			t.Errorf("%s: fingerprint %s, want %s (canonical spec %s)", label, got, want, js)
		}
	}
	for _, r := range rows {
		sp, err := FromConfig(sim.Config{N: 10, F: 3, Protocol: r.p, Adversary: r.a, Seed: 1})
		if err != nil {
			t.Errorf("%s: %v", r.label, err)
			continue
		}
		check(r.label, sp, r.want)
	}

	// Every optional run field, alone and together.
	base := Spec{Protocol: "ears", N: 10, F: 3, Seed: 1}
	for _, r := range []struct {
		label string
		mut   func(*Spec)
		want  string
	}{
		{"horizon", func(s *Spec) { s.Horizon = 1000 }, "d2088377d304b03a"},
		{"max events", func(s *Spec) { s.MaxEvents = 1 << 20 }, "e122b5d3fa7418d5"},
		{"faults", func(s *Spec) { s.Faults = "drop=0.1,dup=0.05,seed=3" }, "d8d52c68a3f4db36"},
		{"topology", func(s *Spec) { s.Topology = "k-regular,k=4" }, "d9a250b93c121491"},
		{"stall window", func(s *Spec) { s.StallWindow = 4096 }, "cf8c9919a6e06602"},
		{"params", func(s *Spec) {
			s.Protocol, s.ProtocolParams = "sears", map[string]float64{"epsilon": 0.25}
			s.Adversary, s.AdversaryParams = "ugf", map[string]float64{"tau": 100}
		}, "3ed658b130cca4de"},
		{"all", func(s *Spec) {
			s.Adversary, s.AdversaryParams = "omission", map[string]float64{"dropbudget": 10}
			s.Horizon, s.MaxEvents, s.StallWindow = 1000, 1<<20, 4096
			s.Faults, s.Topology = "corrupt=0.1,seed=5", "ring"
		}, "cb2cb4f961569c73"},
	} {
		sp := base
		r.mut(&sp)
		if err := sp.Validate(); err != nil {
			t.Errorf("%s: %v", r.label, err)
			continue
		}
		check("spec with "+r.label, sp, r.want)
	}
}
