package sim

import (
	"sort"
	"time"
)

// Stats is the engine's always-on observability block: cheap counters
// maintained inline by the stepping loop and returned with every Outcome.
// Counting is pure observation — it never touches a random stream or a
// scheduling decision — so enabling, reading, or extending Stats cannot
// change simulation outcomes, and every counter is bit-identical for every
// Config.Workers (lanes count into private deltas, folded in lane order by
// the run's goroutine). Only Wall depends on the host machine.
//
// The counters are designed to cost a handful of integer operations per
// engine event and to allocate nothing during the run: payload kinds are
// counted through a small linear-probed slice (protocols use a handful of
// kinds).
type Stats struct {
	// Events is the number of engine events processed: local steps plus
	// sends (the quantity Config.MaxEvents cuts off on).
	Events int64
	// ActiveSteps is the number of distinct global steps at which anything
	// happened — the engine skips provably inert steps, so this is the
	// true iteration count of the stepping loop, not Quiescence.
	ActiveSteps int64
	// LocalSteps is the number of protocol local steps executed.
	LocalSteps int64
	// Sends is the number of messages sent (== Outcome.Messages).
	Sends int64
	// Deliveries is the number of messages handed to a mailbox. It is ≤
	// Sends: messages to crashed processes and omitted sends never arrive.
	Deliveries int64
	// DroppedCrashed counts messages dropped because the receiver had
	// crashed — at send time or while the message was in flight.
	DroppedCrashed int64
	// OmittedSends counts sends suppressed by an omission adversary
	// (Control.SetOmitFrom); they count in Sends but are never delivered.
	OmittedSends int64
	// DroppedLink counts sends lost in the network: blocked by a downed
	// link or a partition class boundary, or dropped by the fault plan's
	// loss roll. Like omitted sends they count in Sends but never arrive.
	// The fault-model counters are omitempty so fault-free outcomes keep
	// their existing JSON encoding bit for bit (the golden matrices hash
	// it).
	DroppedLink int64 `json:",omitempty"`
	// DupDeliveries counts the extra copies delivered by the fault plan's
	// duplication roll. Each is also counted in Deliveries.
	DupDeliveries int64 `json:",omitempty"`
	// CorruptDrops counts messages corrupted in transit and discarded by
	// the receiver at delivery (detected loss; protocols never observe a
	// corrupted payload).
	CorruptDrops int64 `json:",omitempty"`
	// BlockedSends counts sends blocked at send time because the
	// communication graph (Config.Topology plus adversary rewiring) has
	// no live edge between sender and receiver. They count in Sends but
	// never enter the network. omitempty keeps topology-free outcomes'
	// JSON encoding — and hence the golden matrices — byte-identical.
	BlockedSends int64 `json:",omitempty"`

	// HeapPushes and HeapPops count operations on the scheduler's
	// event-time heap — the engine's scheduling work, independent of
	// protocol cost.
	HeapPushes int64
	HeapPops   int64

	// MaxInFlight is the high-water mark of messages simultaneously in
	// flight (sent, not yet delivered or dropped).
	MaxInFlight int64
	// MaxPending is the high-water mark of messages sitting in mailboxes
	// (delivered, not yet consumed by a local step).
	MaxPending int64

	// Sleeps and Wakes count falling-asleep and waking-up transitions.
	Sleeps int64
	Wakes  int64

	// Adversary interventions by type. Crashes counts crash events, which
	// with recoveries can exceed Outcome.Crashed (the processes still down
	// at the end); without recoveries the two are equal. Recoveries counts
	// Control.Recover events and LinkRewrites the link-state interventions
	// (SetClass, DropLink, HealLink).
	Crashes       int64
	Recoveries    int64 `json:",omitempty"`
	DeltaRewrites int64
	DelayRewrites int64
	OmitRewrites  int64
	LinkRewrites  int64 `json:",omitempty"`
	// TopologyRewrites counts communication-graph edge edits
	// (AddEdge/RemoveEdge changes; a RewireEdges success is two).
	TopologyRewrites int64 `json:",omitempty"`

	// MessagesByKind breaks Sends down by Payload.Kind(), sorted by kind.
	MessagesByKind []KindCount

	// Wall holds the real-time cost of the run's phases. It is the one
	// non-deterministic part of Stats: exclude it when comparing runs.
	Wall WallStats
}

// StripWall returns a copy of s with the wall times zeroed — the
// deterministic projection of the block, equal bit for bit across reruns
// of the same (Config, Seed) and across worker counts.
func (s Stats) StripWall() Stats {
	s.Wall = WallStats{}
	return s
}

// KindCount is one payload-kind counter of Stats.MessagesByKind.
type KindCount struct {
	Kind  string
	Count int64
}

// WallStats breaks a run's wall-clock time down by phase.
type WallStats struct {
	// Init covers engine construction: allocating per-process state and
	// building the protocol's N state machines.
	Init time.Duration
	// Run covers the stepping loop — deliveries, local steps, adversary
	// observation — from the first event to quiescence or cutoff.
	Run time.Duration
	// Finalize covers outcome extraction, dominated by the O(N²)
	// rumor-gathering check.
	Finalize time.Duration

	// ShardCommit is the accumulated wall time each shard lane spent in
	// forked step+commit phases, indexed by lane; empty unless the run
	// forked at least one step (Workers > 1 and a due set of 2·Workers or
	// more). The shard fields are omitempty so outcomes of runs that never
	// forked — and StripWall projections — keep the JSON encoding they
	// had before lanes existed (the golden matrices hash it).
	ShardCommit []time.Duration `json:",omitempty"`
	// ShardMerge is the accumulated wall time of the merges that follow
	// forked phases.
	ShardMerge time.Duration `json:",omitempty"`
	// ShardImbalance is max/mean over ShardCommit — 1.0 is a perfectly
	// balanced partition; large values say the contiguous process-range
	// split is mismatched to where the work is.
	ShardImbalance float64 `json:",omitempty"`
}

// Merge folds other into s: counters add, high-water marks take the
// maximum, per-kind counts combine, and wall times accumulate. Use it to
// aggregate the Stats of a sweep's outcomes.
func (s *Stats) Merge(other *Stats) {
	s.Events += other.Events
	s.ActiveSteps += other.ActiveSteps
	s.LocalSteps += other.LocalSteps
	s.Sends += other.Sends
	s.Deliveries += other.Deliveries
	s.DroppedCrashed += other.DroppedCrashed
	s.OmittedSends += other.OmittedSends
	s.DroppedLink += other.DroppedLink
	s.DupDeliveries += other.DupDeliveries
	s.CorruptDrops += other.CorruptDrops
	s.BlockedSends += other.BlockedSends
	s.HeapPushes += other.HeapPushes
	s.HeapPops += other.HeapPops
	if other.MaxInFlight > s.MaxInFlight {
		s.MaxInFlight = other.MaxInFlight
	}
	if other.MaxPending > s.MaxPending {
		s.MaxPending = other.MaxPending
	}
	s.Sleeps += other.Sleeps
	s.Wakes += other.Wakes
	s.Crashes += other.Crashes
	s.Recoveries += other.Recoveries
	s.DeltaRewrites += other.DeltaRewrites
	s.DelayRewrites += other.DelayRewrites
	s.OmitRewrites += other.OmitRewrites
	s.LinkRewrites += other.LinkRewrites
	s.TopologyRewrites += other.TopologyRewrites
	for _, kc := range other.MessagesByKind {
		s.MessagesByKind = addKind(s.MessagesByKind, kc)
	}
	sortKinds(s.MessagesByKind)
	s.Wall.Init += other.Wall.Init
	s.Wall.Run += other.Wall.Run
	s.Wall.Finalize += other.Wall.Finalize
	s.Wall.ShardMerge += other.Wall.ShardMerge
	for i, d := range other.Wall.ShardCommit {
		if i < len(s.Wall.ShardCommit) {
			s.Wall.ShardCommit[i] += d
		} else {
			s.Wall.ShardCommit = append(s.Wall.ShardCommit, d)
		}
	}
	if other.Wall.ShardImbalance > s.Wall.ShardImbalance {
		s.Wall.ShardImbalance = other.Wall.ShardImbalance
	}
}

// addKind adds kc's count to the entry of its kind, appending one if the
// kind is new.
func addKind(kinds []KindCount, kc KindCount) []KindCount {
	for i := range kinds {
		if kinds[i].Kind == kc.Kind {
			kinds[i].Count += kc.Count
			return kinds
		}
	}
	return append(kinds, kc)
}

func sortKinds(kinds []KindCount) {
	sort.Slice(kinds, func(i, j int) bool { return kinds[i].Kind < kinds[j].Kind })
}
