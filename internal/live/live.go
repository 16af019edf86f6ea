// Package live executes protocol state machines as real networked nodes:
// N concurrent goroutines, one per process, exchanging length-prefixed
// binary wire messages (internal/live/wire) over a pluggable Transport —
// in-process channels by default, loopback TCP as the socket-backed
// implementation — with the UGF adversary recast as a programmable network
// interposer sitting on every link.
//
// The simulator (internal/sim) stays the oracle. A live run keeps the
// paper's logical-time semantics with a coordinator-driven synchronizer:
// nodes step concurrently inside a global step, physically exchange
// frames, and a barrier (every forwarded frame acknowledged by its
// receiver) separates step t from step t+1, so the run is a pure function
// of (Config, Seed) even though the message exchange is real concurrency.
// Per-process randomness comes from the same sim.ProcRNG streams, and the
// interposer's fault verdicts come from the same sim.FaultRoll hash chain
// the engine's fault plan uses — which is why a live run and a simulated
// run of the same spec agree (statistically on distributions, and in
// practice bit-for-bit on fault-plan verdicts per message). DESIGN.md §15
// records the architecture; TestLiveMatchesSimStatistically in
// internal/simtest holds the two runtimes together.
//
// Scope: live mode covers the paper's baseline network (every δ_ρ = d_ρ =
// 1) with the link-fault plan, plus live-only interposer injections —
// extra per-message delay, per-step omission, and a crash schedule.
// Delta/delay-rewriting adversaries, topologies, and recoveries remain
// simulator-only; FromSimConfig rejects configs that ask for them.
package live

import (
	"errors"
	"fmt"

	"github.com/ugf-sim/ugf/internal/sim"
)

// Config describes one live run. The zero value of every optional field
// means "off"; N, F, Protocol and Seed mirror sim.Config.
type Config struct {
	// N is the number of nodes (≥ 1).
	N int
	// F is the crash budget, 0 ≤ F < N; the interposer's crash schedule
	// may not exceed it.
	F int
	// Protocol builds the per-node state machines. Required. Every payload
	// kind the protocol sends must have a registered wire codec.
	Protocol sim.Protocol
	// Seed determines every random choice of the run, through the same
	// sim.ProcRNG streams the simulator uses.
	Seed uint64

	// Horizon, MaxEvents and StallWindow are the simulator's cutoffs with
	// identical semantics (sim.Config); zero means the same defaults.
	Horizon     sim.Step
	MaxEvents   int64
	StallWindow int64

	// Faults is the shared link-fault plan: the interposer rolls
	// sim.FaultPlan.Roll per message, so a live run and a simulated run
	// with the same plan drop, duplicate and corrupt the same messages.
	Faults *sim.FaultPlan
	// Delay, Omit and Crashes are the live-only interposer injections; see
	// their types. All are deterministic functions of their seeds.
	Delay *DelayPlan
	Omit  *OmitPlan
	// Crashes is the interposer's frozen crash schedule: each entry crashes
	// one node at the first active step ≥ At. At most F entries, one per
	// node.
	Crashes []Crash

	// Transport moves frames between nodes; nil uses the in-process
	// channel transport. The run closes the transport when it ends.
	Transport Transport

	// Trace receives the run's event stream, same shapes and ordering
	// discipline as the simulator's (deliveries before local steps, serial
	// commit order); nil disables tracing.
	Trace sim.TraceSink
}

// DelayPlan adds seeded extra in-flight delay on top of the baseline
// d = 1: each forwarded message independently gains 1..Max extra steps
// with probability Prob. Verdicts derive from sim.FaultRoll under
// sim.DomainLiveDelay, so they are reproducible and independent of the
// fault plan's rolls.
type DelayPlan struct {
	Seed uint64
	Prob float64
	Max  sim.Step
}

// OmitPlan suppresses all sends of a node for a step: node p at step t is
// omission-gagged with probability Prob, derived from sim.FaultRoll under
// sim.DomainLiveOmit. Omitted sends count in M(O) like the simulator's
// omission adversary.
type OmitPlan struct {
	Seed uint64
	Prob float64
}

// Crash is one entry of the interposer's crash schedule.
type Crash struct {
	Proc sim.ProcID
	At   sim.Step
}

// DeriveCrashes builds a frozen crash schedule of up to f crashes from a
// seed: victims are distinct, steps fall in [1, window]. It exists so
// tests and the CLI can ask for "some deterministic crashes" without
// hand-writing a schedule.
func DeriveCrashes(seed uint64, n, f int, window sim.Step) []Crash {
	if f <= 0 || n < 2 || window < 1 {
		return nil
	}
	crashes := make([]Crash, 0, f)
	used := make(map[sim.ProcID]bool, f)
	for i := 0; len(crashes) < f && i < 4*f+16; i++ {
		p := sim.ProcID(sim.FaultRoll(seed, sim.DomainLiveCrash, uint64(i), 0) * float64(n))
		if p < 0 || int(p) >= n || used[p] {
			continue
		}
		at := 1 + sim.Step(sim.FaultRoll(seed, sim.DomainLiveCrash, uint64(i), 1)*float64(window))
		if at > window {
			at = window
		}
		used[p] = true
		crashes = append(crashes, Crash{Proc: p, At: at})
	}
	return crashes
}

// validate checks the config, mirroring sim.newEngine's checks plus the
// interposer's own.
func (cfg *Config) validate() error {
	switch {
	case cfg.N < 1:
		return fmt.Errorf("live: N = %d, need N ≥ 1", cfg.N)
	case cfg.F < 0 || cfg.F >= cfg.N:
		return fmt.Errorf("live: F = %d, need 0 ≤ F < N = %d", cfg.F, cfg.N)
	case cfg.Protocol == nil:
		return errors.New("live: Config.Protocol is required")
	case cfg.Horizon < 0:
		return fmt.Errorf("live: Horizon = %d, need ≥ 0", cfg.Horizon)
	case cfg.MaxEvents < 0:
		return fmt.Errorf("live: MaxEvents = %d, need ≥ 0", cfg.MaxEvents)
	case cfg.StallWindow < 0:
		return fmt.Errorf("live: StallWindow = %d, need ≥ 0", cfg.StallWindow)
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return err
		}
	}
	if d := cfg.Delay; d != nil {
		if d.Prob < 0 || d.Prob > 1 || (d.Prob > 0 && d.Max < 1) {
			return fmt.Errorf("live: DelayPlan prob=%v max=%d invalid", d.Prob, d.Max)
		}
	}
	if o := cfg.Omit; o != nil {
		if o.Prob < 0 || o.Prob > 1 {
			return fmt.Errorf("live: OmitPlan prob=%v invalid", o.Prob)
		}
	}
	if len(cfg.Crashes) > cfg.F {
		return fmt.Errorf("live: %d scheduled crashes exceed the crash budget F=%d", len(cfg.Crashes), cfg.F)
	}
	seen := make(map[sim.ProcID]bool, len(cfg.Crashes))
	for _, c := range cfg.Crashes {
		switch {
		case c.Proc < 0 || int(c.Proc) >= cfg.N:
			return fmt.Errorf("live: crash schedule names process %d of %d", c.Proc, cfg.N)
		case c.At < 1:
			return fmt.Errorf("live: crash of %d at step %d, need ≥ 1", c.Proc, c.At)
		case seen[c.Proc]:
			return fmt.Errorf("live: process %d crashes twice in the schedule", c.Proc)
		}
		seen[c.Proc] = true
	}
	return nil
}

// FromSimConfig projects a simulator config onto a live one, rejecting
// the features live mode does not cover with a structured error: the live
// runtime supports adversary "none" plus the link-fault plan — the
// statistical-compatibility surface the simulator oracle-checks — and
// nothing that rewrites δ/d, edits topology, or samples mid-run.
func FromSimConfig(cfg sim.Config) (Config, error) {
	switch {
	case cfg.Adversary != nil:
		return Config{}, fmt.Errorf("live: adversary %q is simulator-only; live mode supports adversary \"none\" (the interposer injects faults instead)", cfg.Adversary.Name())
	case cfg.Topology.Active():
		return Config{}, errors.New("live: topologies are simulator-only; live mode runs the complete graph")
	case cfg.Sample != nil || cfg.SampleEvery != 0:
		return Config{}, errors.New("live: dissemination-curve sampling is simulator-only")
	case cfg.MaxWall != 0 || cfg.Cancel != nil:
		return Config{}, errors.New("live: wall-clock watchdogs are simulator-only")
	case cfg.Workers > 1:
		return Config{}, errors.New("live: Workers shards the simulator's commit phase; live nodes are always concurrent")
	}
	return Config{
		N: cfg.N, F: cfg.F, Protocol: cfg.Protocol, Seed: cfg.Seed,
		Horizon: cfg.Horizon, MaxEvents: cfg.MaxEvents, StallWindow: cfg.StallWindow,
		Faults: cfg.Faults, Trace: cfg.Trace,
	}, nil
}

// Run executes one live run to quiescence (or cutoff) and returns its
// Outcome — the same shape, semantics and Stats discipline as sim.Run, so
// runner tooling, the trace auditor, and outcome hashing consume it
// unchanged. The returned error reports configuration or transport
// failures; cutoffs return a valid Outcome with HorizonHit set.
func Run(cfg Config) (sim.Outcome, error) {
	if err := cfg.validate(); err != nil {
		return sim.Outcome{}, err
	}
	r, err := newRuntime(cfg)
	if err != nil {
		return sim.Outcome{}, err
	}
	defer r.shutdown()
	return r.run()
}
