// Package oracle is a deliberately naive reference implementation of the
// simulation semantics of Section II-A, used as the differential-testing
// oracle for the production engine in internal/sim.
//
// Where the production engine earns its speed with an indexed event
// scheduler, pooled delivery buckets, and incrementally maintained
// counters, this engine recomputes everything the slow, obvious way:
// the next event time is found by an O(N) scan over all processes plus a
// scan over the in-flight map, schedulability and quiescence are decided
// by fresh scans, and the in-flight message set is a plain
// map[Step][]Message with no pooling. The two implementations share only
// the public sim types (Config, Outcome, Protocol, Adversary, System) and
// the seed-derivation contract (sim.ProcRNG, sim.AdversaryRNG); every
// scheduling and bookkeeping decision is made independently, so a
// divergence between them is evidence that one of the engines — in
// practice, the optimized one after a refactor — no longer implements the
// paper's semantics.
//
// Run must produce an Outcome bit-identical to sim.Run for every
// deterministic configuration, including all Stats counters except the
// three that are implementation artifacts rather than semantics:
// Stats.Wall (wall-clock), and Stats.HeapPushes/HeapPops (the production
// scheduler's heap traffic; this engine has no heap and leaves them 0).
// internal/simtest.DiffOutcomes normalizes exactly those fields.
//
// Outcome-neutral knobs are ignored: Workers (always serial), Trace,
// Sample, Cancel, and MaxWall. The oracle compares deterministic complete
// executions only.
package oracle

import (
	"errors"
	"fmt"
	"sort"

	"github.com/ugf-sim/ugf/internal/sim"
)

// Run executes one simulation to quiescence (or cutoff) under the naive
// reference semantics and returns its Outcome. It mirrors sim.Run's
// validation; see the package comment for the fields in which the result
// may legitimately differ from the production engine.
func Run(cfg sim.Config) (sim.Outcome, error) {
	e, err := newOracle(cfg)
	if err != nil {
		return sim.Outcome{}, err
	}
	e.run()
	return e.outcome(), nil
}

type oracle struct {
	cfg       sim.Config
	n         int
	horizon   sim.Step
	maxEvents int64

	now   sim.Step
	procs []sim.Process
	adv   sim.AdversaryInstance

	awake     []bool // false for sleeping AND crashed processes
	crashed   []bool
	omitted   []bool
	delta     []sim.Step
	delay     []sim.Step
	anchor    []sim.Step
	lastCrash []sim.Step // step of the most recent crash (0: never crashed)

	pending  [][]sim.Message
	inflight map[sim.Step][]omsg // the entire "calendar": one plain map

	sent     []int64
	lastSend []sim.Step
	sendLog  []sim.SendRecord
	outboxes []sim.Outbox

	// Fault-model state, mirroring the engine's semantics (not its code):
	// partition classes, downed directed links, and the per-message fault
	// plan. Rolls go through the shared pure hash sim.FaultPlan.Roll, the
	// one deliberate sharing point — the roll is part of the semantics (a
	// seeded fault pattern), not an engine implementation choice.
	faults   *sim.FaultPlan
	class    []int32
	linkDown map[int64]struct{}

	// graph is the live communication graph, built by the shared
	// sim.NewGraph constructor — like FaultPlan.Roll, the edge set is
	// part of the semantics (a seeded graph), not an implementation
	// choice, so both engines construct it identically. nil until a
	// topology or the first adversary edge edit requires one.
	graph *sim.Graph

	msgTotal    int64
	crashCount  int
	crashesEver int
	eventCount  int64
	inFlightCt  int64
	horizonHit  bool

	// Stall detection, mirroring the engine's event-window rule.
	stallWindow int64
	stallSig    int64
	stallBase   int64
	stalled     bool

	st    sim.Stats
	kinds map[string]int64
}

// omsg is one in-flight message plus its fault markers: dup flags the
// extra copy of a duplicated delivery, corrupt a message the receiver
// will detect and discard at delivery.
type omsg struct {
	m            sim.Message
	dup, corrupt bool
}

// linkKey packs a directed link into the linkDown set's key.
func linkKey(from, to sim.ProcID) int64 {
	return int64(from)<<32 | int64(to)
}

func newOracle(cfg sim.Config) (*oracle, error) {
	switch {
	case cfg.N < 1:
		return nil, fmt.Errorf("oracle: N = %d, need N ≥ 1", cfg.N)
	case cfg.F < 0 || cfg.F >= cfg.N:
		return nil, fmt.Errorf("oracle: F = %d, need 0 ≤ F < N = %d", cfg.F, cfg.N)
	case cfg.Protocol == nil:
		return nil, errors.New("oracle: Config.Protocol is required")
	case cfg.Horizon < 0:
		return nil, fmt.Errorf("oracle: Horizon = %d, need ≥ 0", cfg.Horizon)
	case cfg.MaxEvents < 0:
		return nil, fmt.Errorf("oracle: MaxEvents = %d, need ≥ 0", cfg.MaxEvents)
	case cfg.StallWindow < 0:
		return nil, fmt.Errorf("oracle: StallWindow = %d, need ≥ 0", cfg.StallWindow)
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return nil, err
		}
	}
	if cfg.Topology != nil {
		if err := cfg.Topology.Validate(); err != nil {
			return nil, err
		}
	}
	n := cfg.N
	e := &oracle{
		cfg: cfg, n: n,
		horizon: cfg.Horizon, maxEvents: cfg.MaxEvents,
		awake: make([]bool, n), crashed: make([]bool, n), omitted: make([]bool, n),
		delta: make([]sim.Step, n), delay: make([]sim.Step, n), anchor: make([]sim.Step, n),
		lastCrash: make([]sim.Step, n),
		pending:   make([][]sim.Message, n),
		inflight:  make(map[sim.Step][]omsg),
		sent:      make([]int64, n), lastSend: make([]sim.Step, n),
		outboxes:    make([]sim.Outbox, n),
		kinds:       make(map[string]int64),
		stallWindow: cfg.StallWindow,
	}
	if cfg.Faults.Active() {
		plan := *cfg.Faults
		e.faults = &plan
	}
	if cfg.Topology.Active() {
		e.graph = sim.NewGraph(cfg.Topology, n)
	}
	if e.horizon == 0 {
		e.horizon = sim.DefaultHorizon
	}
	if e.maxEvents == 0 {
		e.maxEvents = sim.DefaultMaxEvents
	}
	envs := make([]sim.Env, n)
	for p := 0; p < n; p++ {
		e.awake[p] = true
		e.delta[p] = 1
		e.delay[p] = 1
		e.outboxes[p] = sim.NewOutbox(sim.ProcID(p), n)
		envs[p] = sim.Env{ID: sim.ProcID(p), N: n, F: cfg.F, RNG: sim.ProcRNG(cfg.Seed, sim.ProcID(p))}
	}
	e.procs = cfg.Protocol.New(envs)
	if len(e.procs) != n {
		return nil, fmt.Errorf("oracle: protocol %q built %d processes, want %d",
			cfg.Protocol.Name(), len(e.procs), n)
	}
	if cfg.Adversary != nil {
		e.adv = cfg.Adversary.New(n, cfg.F, sim.AdversaryRNG(cfg.Seed))
	}
	return e, nil
}

func (e *oracle) run() {
	if e.adv != nil {
		e.adv.Init(sim.NewView(e), sim.NewControl(e))
	}
	for !e.quiescent() {
		t, ok := e.nextEventTime()
		if !ok {
			e.horizonHit = true // unreachable, mirrored from the engine
			break
		}
		if t > e.horizon || e.eventCount > e.maxEvents {
			e.horizonHit = true
			break
		}
		if e.stallWindow > 0 {
			// Same progress-signature rule as the engine, checked at the
			// same point, over the same deterministic counters — the two
			// implementations stall on the identical event.
			sig := e.st.Deliveries + e.st.Sleeps + e.st.Wakes + e.st.Crashes + e.st.Recoveries
			if sig != e.stallSig {
				e.stallSig = sig
				e.stallBase = e.eventCount
			} else if e.eventCount-e.stallBase >= e.stallWindow {
				e.stalled = true
				e.horizonHit = true
				break
			}
		}
		e.now = t
		e.st.ActiveSteps++
		if e.adv != nil {
			events := e.sendLog
			e.sendLog = nil
			e.adv.Observe(t, events, sim.NewView(e), sim.NewControl(e))
		}
		e.deliver(t)
		e.localSteps(t)
	}
}

// quiescent recomputes the engine's three quiescence counters by scan:
// no correct process awake, no undelivered mailbox message, nothing in
// flight to a correct process.
func (e *oracle) quiescent() bool {
	for p := 0; p < e.n; p++ {
		if e.awake[p] || len(e.pending[p]) > 0 {
			return false
		}
	}
	for _, bucket := range e.inflight {
		for _, im := range bucket {
			// Pre-crash residue does not block quiescence: a message sent
			// before its receiver's last crash was discarded (with its
			// accounting) at crash time, even if the receiver has since
			// recovered — it only remains here until its delivery step
			// formally drops it.
			if !e.crashed[im.m.To] && im.m.SentAt >= e.lastCrash[im.m.To] {
				return false
			}
		}
	}
	return true
}

// nextEventTime scans all N processes for the earliest local-step
// boundary of a schedulable process, and the whole in-flight map for the
// earliest delivery. Buckets bound for crashed processes still count:
// their delivery step is an active step at which the adversary observes
// and the messages are dropped.
func (e *oracle) nextEventTime() (sim.Step, bool) {
	best, found := sim.Step(0), false
	take := func(t sim.Step) {
		if !found || t < best {
			best, found = t, true
		}
	}
	for p := 0; p < e.n; p++ {
		if e.schedulable(sim.ProcID(p)) {
			take(e.nextBoundary(sim.ProcID(p)))
		}
	}
	for at := range e.inflight {
		take(at)
	}
	return best, found
}

// schedulable: not crashed, and awake or holding undelivered mail.
func (e *oracle) schedulable(p sim.ProcID) bool {
	return !e.crashed[p] && (e.awake[p] || len(e.pending[p]) > 0)
}

// nextBoundary returns p's earliest local-step boundary strictly after
// the current step: anchor + k·δ with k ≥ 1.
func (e *oracle) nextBoundary(p sim.ProcID) sim.Step {
	a, d := e.anchor[p], e.delta[p]
	min := e.now + 1
	if a+d >= min {
		return a + d
	}
	k := (min - a + d - 1) / d
	return a + k*d
}

// boundaryAt reports whether p has a local-step boundary exactly at t.
func (e *oracle) boundaryAt(p sim.ProcID, t sim.Step) bool {
	a := e.anchor[p]
	return t > a && (t-a)%e.delta[p] == 0
}

func (e *oracle) deliver(t sim.Step) {
	bucket, ok := e.inflight[t]
	if !ok {
		return
	}
	delete(e.inflight, t)
	for _, im := range bucket {
		e.inFlightCt--
		m := im.m
		if e.crashed[m.To] || m.SentAt < e.lastCrash[m.To] {
			// Crashed receiver, or pre-crash residue reaching a process
			// that has since recovered: the network discarded it.
			e.st.DroppedCrashed++
			continue
		}
		if im.corrupt {
			// Detected at delivery and discarded unread.
			e.st.CorruptDrops++
			continue
		}
		e.st.Deliveries++
		if im.dup {
			e.st.DupDeliveries++
		}
		e.pending[m.To] = append(e.pending[m.To], m)
	}
	if tp := e.totalPending(); tp > e.st.MaxPending {
		e.st.MaxPending = tp
	}
}

// linkBlocked reports whether the directed link from→to is severed, by a
// partition-class mismatch or an explicit DropLink.
func (e *oracle) linkBlocked(from, to sim.ProcID) bool {
	if e.class != nil && e.class[from] != e.class[to] {
		return true
	}
	if len(e.linkDown) == 0 {
		return false
	}
	_, down := e.linkDown[linkKey(from, to)]
	return down
}

func (e *oracle) totalPending() int64 {
	var tp int64
	for p := 0; p < e.n; p++ {
		tp += int64(len(e.pending[p]))
	}
	return tp
}

func (e *oracle) localSteps(t sim.Step) {
	var due []sim.ProcID
	for p := 0; p < e.n; p++ {
		if e.schedulable(sim.ProcID(p)) && e.boundaryAt(sim.ProcID(p), t) {
			due = append(due, sim.ProcID(p))
		}
	}
	// Same phase discipline as the engine: every Step call of the global
	// step runs before any Commit, so protocols with shared run state read
	// the previous step's published view.
	for _, p := range due {
		e.outboxes[p] = sim.NewOutbox(p, e.n)
		e.procs[p].Step(t, e.pending[p], &e.outboxes[p])
	}
	for _, p := range due {
		e.commitOne(t, p)
	}
}

func (e *oracle) commitOne(t sim.Step, p sim.ProcID) {
	e.anchor[p] = t
	e.pending[p] = nil
	e.eventCount++
	e.st.LocalSteps++

	for _, d := range e.outboxes[p].Drain() {
		e.msgTotal++
		e.sent[p]++
		e.lastSend[p] = t
		e.eventCount++
		kind := "?"
		if d.Payload != nil {
			kind = d.Payload.Kind()
		}
		e.kinds[kind]++
		deliverAt := t + e.delay[p]
		if e.adv != nil {
			e.sendLog = append(e.sendLog, sim.SendRecord{From: p, To: d.To, SentAt: t, DeliverAt: deliverAt})
		}
		if e.graph != nil && !e.graph.Live(p, d.To) {
			// Same check, same position as the engine: a dead edge blocks
			// the send before any crash/omission/link verdict.
			e.st.BlockedSends++
			continue
		}
		if e.crashed[d.To] || e.omitted[p] {
			if e.crashed[d.To] {
				e.st.DroppedCrashed++
			} else {
				e.st.OmittedSends++
			}
			continue
		}
		if e.linkBlocked(p, d.To) {
			e.st.DroppedLink++
			continue
		}
		fault := sim.FaultNone
		if e.faults != nil {
			fault = e.faults.Roll(p, d.To, t, e.sent[p])
			if fault == sim.FaultDrop {
				e.st.DroppedLink++
				continue
			}
		}
		msg := sim.Message{From: p, To: d.To, SentAt: t, DeliverAt: deliverAt, Payload: d.Payload}
		e.inflight[deliverAt] = append(e.inflight[deliverAt], omsg{m: msg, corrupt: fault == sim.FaultCorrupt})
		e.inFlightCt++
		if e.inFlightCt > e.st.MaxInFlight {
			e.st.MaxInFlight = e.inFlightCt
		}
		if fault == sim.FaultDuplicate {
			e.inflight[deliverAt] = append(e.inflight[deliverAt], omsg{m: msg, dup: true})
			e.inFlightCt++
			if e.inFlightCt > e.st.MaxInFlight {
				e.st.MaxInFlight = e.inFlightCt
			}
		}
	}

	if c, ok := e.procs[p].(sim.Committer); ok {
		c.Commit(t)
	}

	asleep := e.procs[p].Asleep()
	switch {
	case asleep && e.awake[p]:
		e.awake[p] = false
		e.st.Sleeps++
	case !asleep && !e.awake[p]:
		e.awake[p] = true
		e.st.Wakes++
	}
}

func (e *oracle) outcome() sim.Outcome {
	o := sim.Outcome{
		Protocol:   e.cfg.Protocol.Name(),
		Adversary:  "none",
		N:          e.n,
		F:          e.cfg.F,
		Seed:       e.cfg.Seed,
		Quiescence: e.now,
		Messages:   e.msgTotal,
		Crashed:    e.crashCount,
		HorizonHit: e.horizonHit,
		Stalled:    e.stalled,
	}
	if e.cfg.Adversary != nil {
		o.Adversary = e.cfg.Adversary.Name()
		o.Strategy = e.adv.Label()
	}
	for p := 0; p < e.n; p++ {
		if e.crashed[p] {
			continue
		}
		if e.lastSend[p] > o.TEnd {
			o.TEnd = e.lastSend[p]
		}
		if e.delta[p] > o.DeltaMax {
			o.DeltaMax = e.delta[p]
		}
		if e.delay[p] > o.DelayMax {
			o.DelayMax = e.delay[p]
		}
	}
	if norm := o.DeltaMax + o.DelayMax; norm > 0 {
		o.Time = float64(o.TEnd) / float64(norm)
	}
	o.Gathered = e.gathered()
	st := e.st
	st.Events = e.eventCount
	st.Sends = e.msgTotal
	for kind, count := range e.kinds {
		st.MessagesByKind = append(st.MessagesByKind, sim.KindCount{Kind: kind, Count: count})
	}
	sort.Slice(st.MessagesByKind, func(i, j int) bool {
		return st.MessagesByKind[i].Kind < st.MessagesByKind[j].Kind
	})
	o.Stats = st
	return o
}

func (e *oracle) gathered() bool {
	for p := 0; p < e.n; p++ {
		if e.crashed[p] {
			continue
		}
		for q := 0; q < e.n; q++ {
			if q == p || e.crashed[q] {
				continue
			}
			if !e.procs[p].Knows(sim.ProcID(q)) {
				return false
			}
		}
	}
	return true
}

// The adversary-facing sim.System implementation. Semantics are mirrored
// from Definition II.5, not from the production engine's code: Crash
// enforces the budget and discards the victim's mailbox, SetDelta
// re-anchors the local-step schedule at the current step, SetDelay
// affects future sends only.

// NumProcs implements sim.System.
func (e *oracle) NumProcs() int { return e.n }

// CrashBudget implements sim.System.
func (e *oracle) CrashBudget() int { return e.cfg.F }

// Now implements sim.System.
func (e *oracle) Now() sim.Step { return e.now }

// Crashed implements sim.System.
func (e *oracle) Crashed(p sim.ProcID) bool { return e.crashed[p] }

// Asleep implements sim.System.
func (e *oracle) Asleep(p sim.ProcID) bool { return !e.crashed[p] && !e.awake[p] }

// SentCount implements sim.System.
func (e *oracle) SentCount(p sim.ProcID) int64 { return e.sent[p] }

// Delta implements sim.System.
func (e *oracle) Delta(p sim.ProcID) sim.Step { return e.delta[p] }

// Delay implements sim.System.
func (e *oracle) Delay(p sim.ProcID) sim.Step { return e.delay[p] }

// CrashCount implements sim.System.
func (e *oracle) CrashCount() int { return e.crashCount }

// CrashesEver implements sim.System.
func (e *oracle) CrashesEver() int { return e.crashesEver }

// Crash implements sim.System. The budget check runs against cumulative
// crash events, matching the engine: recoveries do not refund it.
func (e *oracle) Crash(p sim.ProcID) bool {
	if p < 0 || int(p) >= e.n || e.crashed[p] || e.crashesEver >= e.cfg.F {
		return false
	}
	e.crashed[p] = true
	e.crashCount++
	e.crashesEver++
	e.lastCrash[p] = e.now
	e.st.Crashes++
	e.awake[p] = false
	e.pending[p] = nil
	return true
}

// Recover implements sim.System: revive a crashed process at the current
// step, re-anchoring its local-step schedule. Messages sent to p before
// the crash stay lost (the lastCrash residue rule in deliver/quiescent);
// whether p resumes awake is the protocol's call, exactly as in the
// engine.
func (e *oracle) Recover(p sim.ProcID, amnesia bool) bool {
	if p < 0 || int(p) >= e.n || !e.crashed[p] {
		return false
	}
	e.crashed[p] = false
	e.crashCount--
	e.st.Recoveries++
	e.anchor[p] = e.now
	if amnesia {
		if f, ok := e.procs[p].(sim.Forgetter); ok {
			f.Forget()
		}
	}
	if !e.procs[p].Asleep() {
		e.awake[p] = true
	}
	return true
}

// SetDelta implements sim.System.
func (e *oracle) SetDelta(p sim.ProcID, v sim.Step) {
	if p < 0 || int(p) >= e.n {
		panic("oracle: SetDelta on process out of range")
	}
	if v < 1 {
		panic("oracle: SetDelta with non-positive step time")
	}
	e.st.DeltaRewrites++
	e.delta[p] = v
	e.anchor[p] = e.now
}

// SetDelay implements sim.System.
func (e *oracle) SetDelay(p sim.ProcID, v sim.Step) {
	if p < 0 || int(p) >= e.n {
		panic("oracle: SetDelay on process out of range")
	}
	if v < 1 {
		panic("oracle: SetDelay with non-positive delivery time")
	}
	e.st.DelayRewrites++
	e.delay[p] = v
}

// SetOmitFrom implements sim.System.
func (e *oracle) SetOmitFrom(p sim.ProcID, omit bool) {
	if p < 0 || int(p) >= e.n {
		panic("oracle: SetOmitFrom on process out of range")
	}
	e.st.OmitRewrites++
	e.omitted[p] = omit
}

// SetClass implements sim.System: partition-class assignment, lazily
// allocated like the engine's.
func (e *oracle) SetClass(p sim.ProcID, c int) {
	if p < 0 || int(p) >= e.n {
		panic("oracle: SetClass on process out of range")
	}
	if c < 0 {
		panic("oracle: SetClass with negative class")
	}
	if e.class == nil {
		e.class = make([]int32, e.n)
	}
	e.st.LinkRewrites++
	e.class[p] = int32(c)
}

// DropLink implements sim.System.
func (e *oracle) DropLink(from, to sim.ProcID) {
	if from < 0 || int(from) >= e.n || to < 0 || int(to) >= e.n {
		panic("oracle: DropLink on process out of range")
	}
	if e.linkDown == nil {
		e.linkDown = make(map[int64]struct{})
	}
	e.st.LinkRewrites++
	e.linkDown[linkKey(from, to)] = struct{}{}
}

// HealLink implements sim.System.
func (e *oracle) HealLink(from, to sim.ProcID) {
	if from < 0 || int(from) >= e.n || to < 0 || int(to) >= e.n {
		panic("oracle: HealLink on process out of range")
	}
	e.st.LinkRewrites++
	delete(e.linkDown, linkKey(from, to))
}

// EdgeLive implements sim.System.
func (e *oracle) EdgeLive(a, b sim.ProcID) bool {
	if a < 0 || int(a) >= e.n || b < 0 || int(b) >= e.n {
		panic("oracle: EdgeLive on process out of range")
	}
	return e.graph == nil || e.graph.Live(a, b)
}

// AddEdge implements sim.System, mirroring the engine's lazy
// complete-base materialization and rewrite counting (no traces: the
// oracle never traces).
func (e *oracle) AddEdge(a, b sim.ProcID) bool {
	if a < 0 || int(a) >= e.n || b < 0 || int(b) >= e.n {
		panic("oracle: AddEdge on process out of range")
	}
	if e.graph == nil {
		e.graph = sim.NewGraph(nil, e.n)
	}
	if !e.graph.Add(a, b) {
		return false
	}
	e.st.TopologyRewrites++
	return true
}

// RemoveEdge implements sim.System.
func (e *oracle) RemoveEdge(a, b sim.ProcID) bool {
	if a < 0 || int(a) >= e.n || b < 0 || int(b) >= e.n {
		panic("oracle: RemoveEdge on process out of range")
	}
	if e.graph == nil {
		e.graph = sim.NewGraph(nil, e.n)
	}
	if !e.graph.Remove(a, b) {
		return false
	}
	e.st.TopologyRewrites++
	return true
}
