package oracle_test

import (
	"testing"

	"github.com/ugf-sim/ugf/internal/adversary"
	"github.com/ugf-sim/ugf/internal/gossip"
	"github.com/ugf-sim/ugf/internal/sim"
	"github.com/ugf-sim/ugf/internal/sim/oracle"
	"github.com/ugf-sim/ugf/internal/simtest"
)

// TestOracleMatchesEngine sweeps every registered protocol against every
// registered adversary at small N and asserts that the production engine
// and the naive reference engine produce identical outcomes (up to
// simtest.Normalize). The heavy randomized version of this comparison
// lives in internal/simtest; this sweep is the cheap deterministic core
// that runs under -short and pins every protocol×adversary pairing.
func TestOracleMatchesEngine(t *testing.T) {
	type dims struct {
		n, f int
		seed uint64
	}
	cases := []dims{
		{n: 1, f: 0, seed: 1},
		{n: 3, f: 1, seed: 2},
		{n: 11, f: 3, seed: 3},
	}
	for _, pname := range gossip.Names() {
		for _, aname := range adversary.Names() {
			for _, d := range cases {
				cfg := sim.Config{
					N:         d.n,
					F:         d.f,
					Protocol:  gossip.MustByName(pname),
					Adversary: adversary.MustByName(aname),
					Seed:      d.seed,
				}
				got, err := sim.Run(cfg)
				if err != nil {
					t.Fatalf("%s/%s n=%d: engine: %v", pname, aname, d.n, err)
				}
				want, err := oracle.Run(cfg)
				if err != nil {
					t.Fatalf("%s/%s n=%d: oracle: %v", pname, aname, d.n, err)
				}
				if diffs := simtest.DiffOutcomes(got, want); len(diffs) != 0 {
					t.Errorf("%s/%s n=%d f=%d seed=%d: engine and oracle diverge:",
						pname, aname, d.n, d.f, d.seed)
					for _, diff := range diffs {
						t.Errorf("  %s", diff)
					}
				}
			}
		}
	}
}

// TestOracleRejectsBadConfigs pins the oracle's config validation to the
// engine's: both must reject exactly the same configurations.
func TestOracleRejectsBadConfigs(t *testing.T) {
	proto := gossip.MustByName("push-pull")
	bad := []sim.Config{
		{N: 0, Protocol: proto},
		{N: 3, F: -1, Protocol: proto},
		{N: 3, F: 3, Protocol: proto},
		{N: 3},
		{N: 3, Protocol: proto, Horizon: -1},
		{N: 3, Protocol: proto, MaxEvents: -1},
	}
	for i, cfg := range bad {
		if _, err := sim.Run(cfg); err == nil {
			t.Errorf("case %d: engine accepted bad config %+v", i, cfg)
		}
		if _, err := oracle.Run(cfg); err == nil {
			t.Errorf("case %d: oracle accepted bad config %+v", i, cfg)
		}
	}
}
