package simtest

import (
	"fmt"
	"sort"

	"github.com/ugf-sim/ugf/internal/adversary"
	"github.com/ugf-sim/ugf/internal/gossip"
	"github.com/ugf-sim/ugf/internal/sim"
	"github.com/ugf-sim/ugf/internal/xrand"
)

// genDomain separates the generator's derivation path from every seed
// domain the engine uses, so a generated case's run seed never aliases
// the stream that generated it.
const genDomain uint64 = 0x67656e // "gen"

// Case is one generated run configuration. Name encodes the generator
// seed and the drawn dimensions, so a failing property names the exact
// case to replay: Gen(seed) is a pure function.
type Case struct {
	Name string
	Cfg  sim.Config
	// Big marks a case drawn from the large-N band (genBig). Properties
	// keep their semantic checks on big cases but drop purely
	// representational extras whose cost scales with the event count —
	// today, the JSONL trace round-trip.
	Big bool
	// SkipOracle marks cases past the naive oracle's tractable bound —
	// its per-step O(N) scans make dense big-N runs quadratic — so the
	// differential property skips them and the remaining properties
	// (serial≡workers, determinism, trace audit) carry the coverage.
	SkipOracle bool
}

// Gen derives a pseudo-random configuration from genSeed: system size,
// crash budget, protocol, adversary (registry strategies, a random
// Script, or none), run seed, stats interval, and occasional tight
// Horizon/MaxEvents cutoffs so the HorizonHit paths are compared too.
// The distribution leans small — differential runs cost 2× and the
// oracle is O(N) per event — while still crossing every protocol and
// adversary with crashes, rewrites, omission, and cutoff behavior.
func Gen(genSeed uint64) Case {
	r := xrand.New(xrand.Derive(genSeed, genDomain))

	if r.Intn(12) == 0 {
		return genBig(r, genSeed)
	}

	var n int
	switch r.Intn(4) {
	case 0:
		n = 1 + r.Intn(4) // tiny: degenerate schedules, N=1 edge
	case 1, 2:
		n = 5 + r.Intn(20)
	default:
		n = 25 + r.Intn(16)
	}
	f := r.Intn(n)

	protoNames := gossip.Names()
	pname := protoNames[r.Intn(len(protoNames))]

	var adv sim.Adversary
	aname := "script"
	if r.Intn(3) > 0 {
		advNames := adversary.Names()
		aname = advNames[r.Intn(len(advNames))]
		adv = adversary.MustByName(aname)
	} else {
		adv = genScript(r, n)
	}

	cfg := sim.Config{
		N:         n,
		F:         f,
		Protocol:  gossip.MustByName(pname),
		Adversary: adv,
		Seed:      r.Uint64(),
	}
	// These draws once chose two removed observability knobs (per-process
	// counters, interval-series width). They stay so that every generated
	// case and fuzz-corpus entry still decodes to the same run.
	r.Bernoulli(0.5)
	if r.Bernoulli(0.5) {
		r.Intn(10)
	}
	if r.Intn(8) == 0 {
		cfg.MaxEvents = 1000 + r.Int63n(5000)
	}
	if r.Intn(8) == 0 {
		cfg.Horizon = 50 + sim.Step(r.Int63n(500))
	}
	if r.Intn(4) == 0 {
		cfg.Faults = &sim.FaultPlan{
			Seed:      r.Uint64(),
			Drop:      float64(r.Intn(4)) * 0.05,
			Duplicate: float64(r.Intn(4)) * 0.05,
			Corrupt:   float64(r.Intn(4)) * 0.05,
		}
	}
	tname := "complete"
	if r.Intn(4) == 0 {
		cfg.Topology = genTopology(r)
		tname = cfg.Topology.Kind
	}
	// A lossy network, a scripted partition/link drop, or a sparse
	// topology can sever the traffic a protocol is waiting for; give those
	// cases a stall window so they terminate with Outcome.Stalled in
	// bounded events instead of spinning to the horizon. Some fault-free
	// cases draw a window too, so the no-stall path of the detector is
	// differentially compared as well.
	needStall := cfg.Faults != nil || cfg.Topology != nil
	if s, ok := adv.(Script); ok {
		for _, a := range s.Actions {
			switch a.Op {
			case OpSetClass, OpDropLink, OpRemoveEdge, OpRewireEdge:
				needStall = true
			}
		}
	}
	if needStall || r.Intn(8) == 0 {
		cfg.StallWindow = 2048 + r.Int63n(4096)
	}
	// Sparse topologies keep neighbor traffic flowing even when gathering
	// is impossible, so the stall signature alone may never freeze; a
	// tight event cutoff bounds every topology case unconditionally.
	if cfg.Topology != nil && cfg.MaxEvents == 0 {
		cfg.MaxEvents = 2000 + r.Int63n(8000)
	}

	return Case{
		Name: fmt.Sprintf("gen-%#x/%s/%s/%s/n=%d/f=%d/seed=%#x", genSeed, pname, aname, tname, n, f, cfg.Seed),
		Cfg:  cfg,
	}
}

// genTopology draws a non-complete communication graph: the sparse kinds
// with degrees small enough to bite at the generator's N band. Callers
// must pair it with a stall window and an event cutoff — sparse graphs
// can make gathering impossible without quiescing.
func genTopology(r *xrand.RNG) *sim.Topology {
	switch r.Intn(4) {
	case 0:
		return &sim.Topology{Kind: "ring"}
	case 1:
		return &sim.Topology{Kind: "k-regular", K: 2 + 2*r.Intn(4)}
	case 2:
		return &sim.Topology{Kind: "expander", K: 2 + 2*r.Intn(4), Seed: r.Uint64()}
	default:
		return &sim.Topology{Kind: "radio", K: 1 + r.Intn(4), Seed: r.Uint64()}
	}
}

// oracleEventBudget bounds the naive oracle's cost on a generated case:
// activeSteps × N, the dominant term of its per-step O(N) scans. Cases
// above it set SkipOracle — at ring/50k the oracle alone would run 2.5
// billion scan iterations per differential run.
const oracleEventBudget = 60_000_000

// genBig draws a large-N case from the synthetic engine workloads
// (workload.go): N from 1k to 50k, a workload with O(1) per-process
// state, and occasionally a Script adversary so crashes, rewrites, and
// omission are exercised at scale too.
func genBig(r *xrand.RNG, genSeed uint64) Case {
	sizes := []int{1000, 2000, 4000, 8000, 16000, 32000, 50000}
	n := sizes[r.Intn(len(sizes))]
	proto, label, activeSteps := bigWorkload(r.Intn(3), n)

	var adv sim.Adversary
	aname := "none"
	if r.Intn(3) == 0 {
		aname = "script"
		adv = genScript(r, n)
	}

	cfg := sim.Config{
		N:         n,
		F:         r.Intn(64),
		Protocol:  proto,
		Adversary: adv,
		Seed:      r.Uint64(),
	}
	if r.Bernoulli(0.25) { // the removed interval-series width; see Gen
		r.Intn(10)
	}

	return Case{
		Name:       fmt.Sprintf("gen-%#x/big-%s/%s/n=%d/seed=%#x", genSeed, label, aname, n, cfg.Seed),
		Cfg:        cfg,
		Big:        true,
		SkipOracle: activeSteps*int64(n) > oracleEventBudget,
	}
}

// genScript draws a random deterministic action list: crashes,
// recoveries, δ/d/omission rewrites, partition-class assignments, link
// drops/heals, and communication-graph edge edits at arbitrary (often
// never-active) trigger steps, with values spanning several orders of
// magnitude.
func genScript(r *xrand.RNG, n int) Script {
	count := r.Intn(9)
	actions := make([]Action, count)
	for i := range actions {
		a := Action{
			At: sim.Step(r.Int63n(200)),
			Op: Op(r.Intn(12)),
			P:  sim.ProcID(r.Intn(n)),
		}
		switch a.Op {
		case OpSetDelta, OpSetDelay:
			a.V = 1 + sim.Step(r.Int63n(int64(1)<<uint(r.Intn(12))))
		case OpRecover:
			a.V = sim.Step(r.Intn(2)) // retained or amnesiac
		case OpSetClass:
			a.V = sim.Step(r.Intn(3))
		case OpDropLink, OpHealLink, OpAddEdge, OpRemoveEdge:
			a.V = sim.Step(r.Intn(n))
		case OpRewireEdge:
			a.V = sim.Step(r.Intn(n))
			a.V2 = sim.Step(r.Intn(n))
		}
		actions[i] = a
	}
	sort.SliceStable(actions, func(i, j int) bool { return actions[i].At < actions[j].At })
	return Script{Actions: actions}
}
