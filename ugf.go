// Package ugf is a laptop-scale reproduction of "The Universal Gossip
// Fighter" (Gorbunova, Guerraoui, Kermarrec, Kucherenko, Pinot —
// IPPS 2022): a discrete-step simulator for partially synchronous,
// crash-prone message-passing systems, the all-to-all gossip protocols the
// paper evaluates, and the paper's contribution — the Universal Gossip
// Fighter (UGF), an adaptive adversary that slows the dissemination of
// *any* all-to-all gossip protocol without knowing which protocol it is
// attacking.
//
// This package is the public facade: it re-exports the simulation engine
// (internal/sim), the protocols (internal/gossip), UGF and its component
// strategies (internal/core), and the contrast adversaries
// (internal/adversary) under one import.
//
// # Quick start
//
//	outcome, err := ugf.Run(ugf.Config{
//		N:         100,
//		F:         30,
//		Protocol:  ugf.PushPull{},
//		Adversary: ugf.UGF{FixedK: 1, FixedL: 1}, // the paper's setting
//		Seed:      1,
//	})
//	if err != nil { ... }
//	fmt.Println(outcome) // M(O), T(O), strategy drawn, rumor gathering, …
//
// A run is a pure function of (Config, Seed): rerunning the same
// configuration reproduces the outcome bit for bit, for every lane count
// (Config.Workers).
//
// # Implementing your own protocol or adversary
//
// Protocols implement Protocol/Process (see the sim package for the
// execution-model contract), adversaries implement Adversary/
// AdversaryInstance. The examples/custom-protocol program walks through a
// complete protocol implementation.
//
// # Reproducing the paper
//
// cmd/ugfbench regenerates every figure and table (DESIGN.md §3 maps each
// to its experiment id); cmd/ugfsim runs and traces single scenarios.
package ugf

import (
	"io"

	"github.com/ugf-sim/ugf/internal/adversary"
	"github.com/ugf-sim/ugf/internal/core"
	"github.com/ugf-sim/ugf/internal/gossip"
	"github.com/ugf-sim/ugf/internal/service"
	"github.com/ugf-sim/ugf/internal/sim"
	"github.com/ugf-sim/ugf/internal/sim/trace"
	"github.com/ugf-sim/ugf/internal/spec"
)

// Simulation engine types (see internal/sim for full documentation).
type (
	// Config fully describes one run; Run(Config) is deterministic.
	Config = sim.Config
	// Outcome is the measured result of a run: M(O), T(O), T_end, rumor
	// gathering, crash count, and the adversary's strategy label.
	Outcome = sim.Outcome
	// Protocol builds the per-process state machines of a run.
	Protocol = sim.Protocol
	// Process is one process's protocol state machine.
	Process = sim.Process
	// Env is the identity/constants/randomness a Process is built with.
	Env = sim.Env
	// Outbox collects the sends of one local step.
	Outbox = sim.Outbox
	// Message is a payload in transit.
	Message = sim.Message
	// Payload is protocol-defined message content.
	Payload = sim.Payload
	// Adversary builds per-run adversary instances.
	Adversary = sim.Adversary
	// AdversaryInstance is the online, adaptive attack state.
	AdversaryInstance = sim.AdversaryInstance
	// View is the adversary's read-only window onto the system.
	View = sim.View
	// Control is the adversary's crash/delay write access.
	Control = sim.Control
	// SendRecord is the adversary-visible record of one send.
	SendRecord = sim.SendRecord
	// ProcID identifies a process (and the gossip it originated).
	ProcID = sim.ProcID
	// Step counts global time steps.
	Step = sim.Step
	// TraceSink receives engine events.
	TraceSink = sim.TraceSink
	// TraceEvent is one observable engine event.
	TraceEvent = sim.TraceEvent
	// TraceKind classifies trace events.
	TraceKind = sim.TraceKind
	// KindMask is a bit set of TraceKinds for trace filtering.
	KindMask = sim.KindMask
	// Recorder is an in-memory TraceSink for tests and small runs; stream
	// large runs to disk with NewJSONLTrace/CreateJSONLTrace instead.
	Recorder = sim.Recorder
	// FuncSink adapts a function to the TraceSink interface.
	FuncSink = sim.FuncSink
	// Snapshot is a point on the dissemination curve (Config.Sample).
	Snapshot = sim.Snapshot
	// Stats is the engine's always-on per-run observability block (see
	// Outcome.Stats): scheduler, message, lifecycle and adversary counters,
	// all deterministic except Stats.Wall.
	Stats = sim.Stats
	// KindCount is one payload-kind counter of Stats.MessagesByKind.
	KindCount = sim.KindCount
	// WallStats is a run's wall-clock cost by phase.
	WallStats = sim.WallStats
	// FaultPlan is a deterministic per-link fault model (Config.Faults):
	// seeded probabilistic drop, duplication, and detected corruption of
	// messages in the network, bit-identical across serial, parallel, and
	// sharded execution.
	FaultPlan = sim.FaultPlan
	// LinkFault is the verdict of one FaultPlan roll.
	LinkFault = sim.LinkFault
	// Topology names a communication graph for Config.Topology; nil (or
	// kind "complete") is the paper's all-to-all network.
	Topology = sim.Topology
	// Graph is a run's live communication-graph edge set.
	Graph = sim.Graph
	// JSONLTrace is the streaming JSONL TraceSink of sim/trace: full traces
	// of large runs go to disk instead of RAM.
	JSONLTrace = trace.JSONL
	// TraceRecord is the decoded form of one JSONL trace line.
	TraceRecord = trace.Record
	// TraceFilter selects trace events by kind, process, and step window.
	TraceFilter = trace.Filter
)

// Trace event kinds (sim.TraceSend etc. re-exported).
const (
	TraceSend      = sim.TraceSend
	TraceArrive    = sim.TraceArrive
	TraceLocalStep = sim.TraceLocalStep
	TraceCrash     = sim.TraceCrash
	TraceSleep     = sim.TraceSleep
	TraceWake      = sim.TraceWake
	TraceAdversary = sim.TraceAdversary
	TraceEnd       = sim.TraceEnd
	TraceRecover   = sim.TraceRecover
	TraceDrop      = sim.TraceDrop
)

// Link-fault verdicts (sim.FaultNone etc. re-exported).
const (
	FaultNone      = sim.FaultNone
	FaultDrop      = sim.FaultDrop
	FaultDuplicate = sim.FaultDuplicate
	FaultCorrupt   = sim.FaultCorrupt
)

// ParseFaultPlan parses a fault spec such as
// "drop=0.1,dup=0.05,corrupt=0.01,seed=7" into a FaultPlan for
// Config.Faults. An empty spec yields nil (no faults).
func ParseFaultPlan(s string) (*FaultPlan, error) { return sim.ParseFaultPlan(s) }

// ParseTopology parses a topology spec such as "ring", "k-regular,k=4",
// "expander,k=4,seed=9", or "radio,k=3,seed=2" into a Topology for
// Config.Topology. An empty spec yields nil (the complete graph).
func ParseTopology(s string) (*Topology, error) { return sim.ParseTopology(s) }

// NewJSONLTrace returns a streaming JSONL trace sink writing to w; the
// caller keeps ownership of w.
func NewJSONLTrace(w io.Writer) *JSONLTrace { return trace.NewJSONL(w) }

// CreateJSONLTrace opens (truncating) the file at path and returns a JSONL
// trace sink that owns it: Close flushes and closes the file.
func CreateJSONLTrace(path string) (*JSONLTrace, error) { return trace.Create(path) }

// ReadTrace decodes a JSONL trace stream back into records.
func ReadTrace(r io.Reader) ([]TraceRecord, error) { return trace.Read(r) }

// MultiTrace fans every event out to all sinks, in order.
func MultiTrace(sinks ...TraceSink) TraceSink { return trace.Multi(sinks...) }

// CloseTrace closes a sink if it is closable (JSONL and filtered sinks
// are) and is a no-op otherwise.
func CloseTrace(s TraceSink) error { return trace.CloseSink(s) }

// The all-to-all gossip protocols of the paper's evaluation plus the
// baselines and extensions (see internal/gossip).
type (
	// PushPull is the pull-request/push protocol of Section V-A2(a).
	PushPull = gossip.PushPull
	// Push is the classic push-only protocol of Karp et al. [19].
	Push = gossip.Push
	// Pull is the classic pull-only protocol of Karp et al. [19].
	Pull = gossip.Pull
	// EARS is Epidemic Asynchronous Rumor Spreading [14].
	EARS = gossip.EARS
	// SEARS is Spamming EARS [14]: constant time, quadratic messages.
	SEARS = gossip.SEARS
	// RoundRobin is the deliberately inefficient protocol of Example 1.
	RoundRobin = gossip.RoundRobin
	// Broadcast is the trivial one-round, N² message protocol.
	Broadcast = gossip.Broadcast
	// Doubling is deterministic recursive-doubling dissemination:
	// N·⌈log₂N⌉ messages, ⌈log₂N⌉ rounds, zero crash tolerance.
	Doubling = gossip.Doubling
	// BudgetCapped is the N²/α-message protocol family of the Theorem 1
	// trade-off experiment.
	BudgetCapped = gossip.BudgetCapped
	// Adaptive is a Push-Pull variant that tries to adapt to the
	// adversary — the ablation target for UGF's randomization.
	Adaptive = gossip.Adaptive
)

// The adversaries.
type (
	// UGF is the Universal Gossip Fighter, Algorithm 1 — the paper's
	// contribution. The zero value is the paper's experimental setting
	// except for exponents, which it samples; set FixedK/FixedL to 1 for
	// the exact Section V-A3 configuration.
	UGF = core.UGF
	// Strategy1 always crashes the controlled set C.
	Strategy1 = core.Strategy1
	// Strategy2K0 isolates one process of C and crashes its receivers.
	Strategy2K0 = core.Strategy2K0
	// Strategy2KL delays C's local steps (τᵏ) and deliveries (τᵏ⁺ˡ).
	Strategy2KL = core.Strategy2KL
	// Oblivious pre-commits its crashes — the weak adversary of [14].
	Oblivious = adversary.Oblivious
	// Omission drops C's messages instead of delaying them (Sec. VII).
	Omission = adversary.Omission
	// Partition splits the membership into communication classes for
	// windows of steps, healing between windows.
	Partition = adversary.Partition
	// CrashRecovery crashes up to ⌊F/2⌋ processes and later recovers each,
	// mixing amnesiac and state-retaining restarts.
	CrashRecovery = adversary.CrashRecovery
	// Rewire obliviously mutates the communication graph within a fixed
	// edge-edit budget (Config.Topology's dynamic-network adversary).
	Rewire = adversary.Rewire
)

// Run executes one simulation to quiescence (or cutoff) and returns its
// Outcome. It is sim.Run re-exported.
func Run(cfg Config) (Outcome, error) { return sim.Run(cfg) }

// NewOutbox returns a standalone Outbox for driving Process
// implementations in tests.
func NewOutbox(from ProcID, n int) Outbox { return sim.NewOutbox(from, n) }

// ProtocolByName looks a protocol up by its registry name ("push-pull",
// "push", "pull", "ears", "sears", "round-robin", "broadcast", "doubling",
// "adaptive", "budget-capped"), configured with the paper's experimental
// parameters.
func ProtocolByName(name string) (Protocol, bool) { return gossip.ByName(name) }

// ProtocolNames lists the registered protocol names.
func ProtocolNames() []string { return gossip.Names() }

// AdversaryByName looks an adversary up by name: "none" (nil), "ugf"
// (the paper's fixed k = l = 1 setting), "ugf-sampled" (ζ(2)-sampled
// exponents), "strategy-1", "strategy-2.1.0", "strategy-2.1.1",
// "oblivious", "omission", "partition", "crash-recovery", or "rewire".
// It is adversary.ByName re-exported, mirroring ProtocolByName.
func AdversaryByName(name string) (Adversary, bool) { return adversary.ByName(name) }

// AdversaryNames lists the names AdversaryByName accepts.
func AdversaryNames() []string { return adversary.Names() }

// Canonical run specifications and the sweep service (see internal/spec
// and internal/service). A Spec is the serializable, versioned, validated
// description of one run — the currency of the result cache, the HTTP job
// API, and the distributed sweep runtime.
type (
	// Spec names a protocol and adversary from the registries, overlays
	// parameter diffs, and fixes N/F/seed and the run limits. Spec.Config
	// is the one blessed path from a serialized description to a runnable
	// Config.
	Spec = spec.Spec
	// SpecError is the structured validation error every Spec rejection
	// carries: the offending field, the parameter within it, and a message.
	SpecError = spec.Error
	// SweepClient speaks the sweep service's HTTP job API: submit spec
	// grids, stream results, fetch cached runs, and work leases.
	SweepClient = service.Client
)

// ParseSpec decodes and validates a JSON spec, rejecting unknown fields.
// Failures are *SpecError values naming the offending field.
func ParseSpec(data []byte) (Spec, error) { return spec.ParseSpec(data) }

// OutcomeHash collapses an outcome's deterministic projection (every
// field except Stats.Wall) to a 16-hex-digit FNV-64a hash — the equality
// under which reproducibility is asserted.
func OutcomeHash(o Outcome) string { return spec.OutcomeHash(o) }

// NewSweepClient returns a client for the sweep coordinator at baseURL
// (the address ugfbench -serve listens on).
func NewSweepClient(baseURL string) *SweepClient { return service.NewClient(baseURL) }
