package gossip

import (
	"github.com/ugf-sim/ugf/internal/params"
	"github.com/ugf-sim/ugf/internal/sim"
)

// ByName returns the protocol with the given registry name, configured
// with the paper's experimental parameters. It reports false for unknown
// names. Parameterized construction is done with Build (validated, by
// name) or by building the struct directly.
func ByName(name string) (sim.Protocol, bool) { return registry.ByName(name) }

// Names lists the registry names in sorted order.
func Names() []string { return registry.Names() }

// Entries lists the registry entries in Names order.
func Entries() []params.Entry[sim.Protocol] { return registry.Entries() }

// MustByName is ByName for static names; it panics on unknown ones.
func MustByName(name string) sim.Protocol { return registry.MustByName(name) }

// Build constructs the named protocol with parameter overrides validated
// against its schemas; see params.Registry.Build.
func Build(name string, p map[string]float64) (sim.Protocol, error) { return registry.Build(name, p) }

// Extract is the inverse of Build; see params.Registry.Extract.
func Extract(p sim.Protocol) (name string, overrides map[string]float64, ok bool) {
	return registry.Extract(p)
}

// protoBounds constrains the parameters whose domains the protocol
// implementations assume; everything else is unbounded (zero values mean
// "use the protocol's documented default").
var protoBounds = params.Bounds{
	"windowscale":  {0, 1e6},
	"c":            {0, 1e6},
	"epsilon":      {0, 1},
	"alpha":        {0, 1 << 31},
	"giveupfactor": {0, 1 << 31},
}

var registry = &params.Registry[sim.Protocol]{What: "gossip: unknown protocol", Bounds: protoBounds}

func init() {
	// In Name() order: Names is documented as sorted, and its order is
	// part of every spec fingerprint. The budget-capped family registers
	// the α = 2 instance the Theorem 1 trade-off experiment uses.
	for _, p := range []sim.Protocol{
		Adaptive{}, Broadcast{}, BudgetCapped{Alpha: 2}, Doubling{}, EARS{},
		Pull{}, Push{}, PushPull{}, RoundRobin{}, SEARS{},
	} {
		registry.Add(p.Name(), p)
	}
}
