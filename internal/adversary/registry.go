package adversary

import (
	"github.com/ugf-sim/ugf/internal/core"
	"github.com/ugf-sim/ugf/internal/params"
	"github.com/ugf-sim/ugf/internal/sim"
)

// ByName returns the adversary with the given registry name, configured
// with the paper's experimental parameters, mirroring gossip.ByName. The
// name "none" resolves to (nil, true): a nil Adversary is the engine's
// adversary-free mode. Parameterized construction is done with Build
// (validated, by name) or by building the struct directly.
func ByName(name string) (sim.Adversary, bool) { return registry.ByName(name) }

// Names lists the registry names, "none" first, then the paper's
// presentation order: UGF and its variants, the component strategies, the
// contrast adversaries.
func Names() []string { return registry.Names() }

// Entries lists the registry entries in Names order ("none": nil Instance).
func Entries() []params.Entry[sim.Adversary] { return registry.Entries() }

// MustByName is ByName for static names; it panics on unknown ones.
func MustByName(name string) sim.Adversary { return registry.MustByName(name) }

// Build constructs the named adversary with parameter overrides validated
// against its schemas; see params.Registry.Build. "none" accepts no
// parameters and builds nil.
func Build(name string, p map[string]float64) (sim.Adversary, error) {
	if name == "none" && len(p) > 0 {
		return nil, &params.Error{Msg: `adversary "none" takes no parameters`}
	}
	return registry.Build(name, p)
}

// Extract is the inverse of Build; see params.Registry.Extract. nil
// extracts to "none".
func Extract(a sim.Adversary) (name string, overrides map[string]float64, ok bool) {
	if a == nil {
		return "none", nil, true
	}
	return registry.Extract(a)
}

// advBounds constrains the parameters whose domains the adversary
// implementations assume: the strategy-mix probabilities live in [0, 1],
// counts and step times are non-negative.
var advBounds = params.Bounds{
	"q1":          {0, 1},
	"q2":          {0, 1},
	"tau":         {0, 1 << 50},
	"fixedk":      {0, 64},
	"fixedl":      {0, 64},
	"maxexponent": {0, 64},
	"k":           {0, 64},
	"l":           {0, 64},
	"maxtime":     {0, 1 << 50},
	"dropbudget":  {0, 1 << 50},
	"classes":     {0, 1 << 31},
	"window":      {0, 1 << 50},
	"gap":         {0, 1 << 50},
	"cycles":      {0, 1 << 31},
	"downtime":    {0, 1 << 50},
	"budget":      {0, 1 << 31},
	"perround":    {0, 1 << 31},
	"drop":        {0, 1},
}

// registry holds the entries in the order Names lists them, which is
// part of every spec fingerprint. The strategy keys name the k = l = 1
// instantiations the experiments use ("strategy-2.1.0", "strategy-2.1.1"),
// not the generic Name() labels ("strategy-2.k.0"), which describe the
// parameterized family.
var registry = &params.Registry[sim.Adversary]{What: "adversary: unknown adversary", Bounds: advBounds}

func init() {
	registry.Add("none", nil)
	// The paper's Section V-A3 setting fixes both exponents to 1; the
	// sampled variant draws them from ζ(2) as Algorithm 1 specifies.
	registry.Add("ugf", core.UGF{FixedK: 1, FixedL: 1})
	registry.Add("ugf-sampled", core.UGF{})
	registry.Add("strategy-1", core.Strategy1{})
	registry.Add("strategy-2.1.0", core.Strategy2K0{})
	registry.Add("strategy-2.1.1", core.Strategy2KL{})
	registry.Add((Oblivious{}).Name(), Oblivious{})
	registry.Add((Omission{}).Name(), Omission{})
	// The registry partition always heals after its cycles, so property
	// sweeps over registry names terminate; Partition{Permanent: true} is
	// only ever constructed directly (its spec encoding carries
	// permanent=1).
	registry.Add((Partition{}).Name(), Partition{})
	registry.Add((CrashRecovery{}).Name(), CrashRecovery{})
	// The registry rewire keeps Drop = 0 (edge-count-preserving), so
	// property sweeps over registry names stay likely to terminate even
	// on sparse topologies; dropping instances are built directly or via
	// Build with a drop override.
	registry.Add((Rewire{}).Name(), Rewire{})
}
