package sim

import "fmt"

// Outcome summarizes one execution — the measurable projection of the
// paper's outcome O (Section II-B) plus bookkeeping used by the harness.
type Outcome struct {
	Protocol  string // Protocol.Name()
	Adversary string // Adversary.Name(), "none" without an adversary
	Strategy  string // AdversaryInstance.Label(), "" when not applicable
	N         int
	F         int
	Seed      uint64

	// TEnd is the last global step at which a process that is correct at
	// the end of the run sent a message — the completion time of
	// Definition II.4 under the quiescence semantics of this simulator
	// (a process completes the moment of its final falling-asleep, and it
	// sends up to that moment).
	TEnd Step
	// Quiescence is the global step at which the engine detected full
	// quiescence (every correct process asleep, nothing in flight to a
	// correct process). Always ≥ TEnd.
	Quiescence Step
	// Messages is M(O): the total number of messages sent by all
	// processes, crashed ones included, regardless of size (Def. II.3).
	Messages int64
	// Time is T(O) = TEnd / (DeltaMax + DelayMax) (Def. II.4).
	Time float64
	// DeltaMax and DelayMax are δ and d: the maximum local-step and
	// delivery times among processes that are correct at the end of the
	// run (consistent with Observations 1 and 2 of the paper).
	DeltaMax Step
	DelayMax Step

	// Crashed is the number of processes still crashed at the end of the
	// run. Without recoveries it equals the number the adversary crashed
	// (≤ F); Stats.Crashes and Stats.Recoveries count the events.
	Crashed int
	// Gathered reports rumor gathering (Def. II.1): every correct process
	// ended up knowing the gossip of every correct process.
	Gathered bool
	// HorizonHit is true when the run was cut off by Config.Horizon or
	// Config.MaxEvents instead of reaching quiescence. Outcomes with
	// HorizonHit set must not be fed into complexity statistics.
	HorizonHit bool
	// Stalled is true when stall detection (Config.StallWindow) stopped
	// the run: the system processed a full event window with no delivery
	// and no lifecycle transition, so it can make no further progress —
	// the deterministic termination of a fully-partitioned or fully-lossy
	// run. A stalled outcome is a classified non-failure, not a cutoff
	// artifact, but it is still not a complete execution; Stalled implies
	// HorizonHit, which keeps stalled runs out of complexity statistics.
	// The field is omitempty so stall-free outcomes keep their JSON
	// encoding bit for bit.
	Stalled bool `json:",omitempty"`
	// Cancelled is true when the run was stopped by Config.Cancel or the
	// Config.MaxWall watchdog. The outcome is a valid partial execution
	// prefix, but — unlike a Horizon/MaxEvents cutoff — the stopping point
	// depends on wall-clock time, so cancelled outcomes are never
	// journaled or replayed. Cancelled implies HorizonHit.
	Cancelled bool

	// Stats is the engine's always-on observability block: event, message,
	// scheduler and adversary-intervention counters, and per-phase wall
	// times. Every field except Stats.Wall is a pure function of (Config,
	// Seed).
	Stats Stats
}

// StripWall returns a copy of o with the wall times of the Stats block
// zeroed. A run is a pure function of (Config, Seed) except for those
// wall times; compare StripWall results when asserting reproducibility.
func (o Outcome) StripWall() Outcome {
	o.Stats = o.Stats.StripWall()
	return o
}

func (o Outcome) String() string {
	return fmt.Sprintf("%s vs %s%s: N=%d F=%d M=%d T=%.2f (T_end=%d, δ=%d, d=%d, crashed=%d, gathered=%v)",
		o.Protocol, o.Adversary, strategySuffix(o.Strategy),
		o.N, o.F, o.Messages, o.Time, o.TEnd, o.DeltaMax, o.DelayMax, o.Crashed, o.Gathered)
}

func strategySuffix(s string) string {
	if s == "" {
		return ""
	}
	return "[" + s + "]"
}
