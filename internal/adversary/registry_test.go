package adversary

import (
	"testing"

	"github.com/ugf-sim/ugf/internal/gossip"
	"github.com/ugf-sim/ugf/internal/sim"
)

func TestRegistryNamesResolve(t *testing.T) {
	names := Names()
	if len(names) == 0 || names[0] != "none" {
		t.Fatalf("Names() = %v, want \"none\" first", names)
	}
	seen := map[string]bool{}
	for _, name := range names {
		if seen[name] {
			t.Errorf("duplicate name %q", name)
		}
		seen[name] = true
		a, ok := ByName(name)
		if !ok {
			t.Errorf("ByName(%q) not found although listed", name)
		}
		if name == "none" {
			if a != nil {
				t.Errorf("ByName(\"none\") = %v, want nil (adversary-free mode)", a)
			}
			continue
		}
		if a == nil {
			t.Errorf("ByName(%q) = nil", name)
		}
	}
}

func TestRegistryPaperSettings(t *testing.T) {
	// "ugf" must be the paper's fixed-exponent Section V-A3 configuration,
	// "ugf-sampled" the ζ(2)-sampling variant; they are distinct values.
	fixed := MustByName("ugf")
	sampled := MustByName("ugf-sampled")
	if fixed == sampled {
		t.Fatal("ugf and ugf-sampled configured identically")
	}
	if fixed.Name() != "ugf" || sampled.Name() != "ugf" {
		t.Errorf("both variants must report the UGF adversary name")
	}
}

func TestRegistryUnknownName(t *testing.T) {
	if _, ok := ByName("no-such-adversary"); ok {
		t.Error("unknown name resolved")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustByName did not panic on an unknown name")
		}
	}()
	MustByName("no-such-adversary")
}

func TestRegistryAdversariesRun(t *testing.T) {
	// Every registered adversary must drive a small run to completion.
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			var adv sim.Adversary
			if name != "none" {
				adv = MustByName(name)
			}
			o, err := sim.Run(sim.Config{
				N: 12, F: 4, Protocol: gossip.PushPull{}, Adversary: adv, Seed: 9,
				MaxEvents: 2_000_000,
			})
			if err != nil {
				t.Fatal(err)
			}
			if o.TEnd < 0 {
				t.Fatalf("bad outcome: %+v", o)
			}
		})
	}
}
