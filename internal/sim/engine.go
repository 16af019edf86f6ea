package sim

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/ugf-sim/ugf/internal/xrand"
)

// Config fully describes one run. A run is a pure function of its Config
// (including Seed); the Workers knob changes only how fast the run
// executes, never its outcome.
type Config struct {
	// N is the number of processes (≥ 1).
	N int
	// F is the adversary's crash budget, 0 ≤ F < N. Protocols may also
	// read F (EARS dimensions its inactivity window with it).
	F int
	// Protocol builds the per-process state machines. Required.
	Protocol Protocol
	// Adversary attacks the run; nil means no adversary (the paper's
	// baseline: every δ_ρ = d_ρ = 1 and no crashes).
	Adversary Adversary
	// Seed determines every random choice of the run.
	Seed uint64

	// Horizon cuts off runs that have not quiesced by this global step.
	// 0 means DefaultHorizon. Hitting it sets Outcome.HorizonHit.
	Horizon Step
	// MaxEvents cuts off runs after this many engine events (local steps
	// plus messages), guarding against non-quiescent protocols that stay
	// busy forever. 0 means DefaultMaxEvents. Hitting it sets HorizonHit.
	MaxEvents int64
	// Faults, when non-nil, is the run's link-fault plan: deterministic,
	// seeded drop/duplicate/corrupt-delivery rules applied per message
	// (see FaultPlan). The engine copies the plan at construction; nil
	// injects nothing.
	Faults *FaultPlan
	// Topology, when non-nil and not complete, restricts communication
	// to the edges of the named graph (see Topology): a send whose edge
	// is not live at send time counts in M(O) and Stats.BlockedSends but
	// is never delivered. nil (or "complete") is the paper's all-to-all
	// network, bit-identical to pre-topology runs. Adversaries may
	// rewire edges at Observe time (Control.AddEdge/RemoveEdge).
	Topology *Topology
	// StallWindow, when > 0, enables stall detection: a run that
	// processes StallWindow consecutive events with no delivery and no
	// lifecycle transition (sleep, wake, crash, recovery) stops with
	// Outcome.Stalled set — the bounded, deterministic termination of a
	// fully-partitioned or fully-lossy run that would otherwise spin to
	// Horizon/MaxEvents. 0 disables detection.
	StallWindow int64
	// Workers > 1 forks the local steps and commits of every global step
	// with at least 2·Workers due processes over that many shard lanes
	// (shard.go); smaller steps, and every step when Workers ≤ 1, run the
	// one lane inline on the run's goroutine. Outcomes and traces are
	// bit-identical for every value.
	Workers int
	// Trace receives engine events, always from the run's own goroutine;
	// nil disables tracing.
	Trace TraceSink
	// Sample, when non-nil, is called at most once every SampleEvery
	// global steps with a progress snapshot — the dissemination curve.
	// Computing a snapshot costs O(N²) Knows queries, so keep SampleEvery
	// coarse on large systems.
	Sample func(s Snapshot)
	// SampleEvery is the minimum global-step distance between snapshots;
	// 0 with a non-nil Sample means every active step.
	SampleEvery Step

	// MaxWall is a wall-clock watchdog: a run still going after this much
	// real time stops at the next event boundary with a valid partial
	// Outcome (Cancelled and HorizonHit set). 0 disables the watchdog.
	// Unlike every other field, MaxWall and Cancel make the *stopping
	// point* depend on real time, so cancelled outcomes are marked and
	// must be excluded from statistics — which HorizonHit already ensures.
	MaxWall time.Duration
	// Cancel, when non-nil, is polled at event boundaries (every
	// cancelPollEvery active steps); once it is closed the run stops with
	// a valid partial Outcome (Cancelled and HorizonHit set). Pass a
	// context's Done() channel for cooperative SIGINT handling.
	Cancel <-chan struct{}
}

// Snapshot is a point on the dissemination curve.
type Snapshot struct {
	// Now is the global step of the snapshot.
	Now Step
	// Coverage is the fraction of ordered correct pairs (p, q), p ≠ q,
	// where p knows q's gossip: 1 means rumor gathering is complete.
	Coverage float64
	// AwakeCorrect is the number of correct processes not asleep.
	AwakeCorrect int
	// Messages is M of the execution prefix.
	Messages int64
	// Crashed is the number of crashed processes.
	Crashed int
}

// Default cutoffs. The horizon is deliberately enormous: the engine skips
// inactive steps, so a large horizon costs nothing, and delay strategies
// with τᵏ⁺ˡ in the billions still complete.
const (
	DefaultHorizon   Step  = 1 << 50
	DefaultMaxEvents int64 = 1 << 30
)

// cancelPollEvery is the active-step granularity at which the run loop
// polls Config.Cancel and the MaxWall deadline. A power of two so that the
// check compiles to a mask; 256 keeps the overhead unmeasurable while
// bounding the reaction latency to a few hundred (cheap) events.
const cancelPollEvery = 256

// Domain tags for deterministic seed derivation (see xrand.Derive).
const (
	seedDomainProc uint64 = 1
	seedDomainAdv  uint64 = 2
)

// AdversaryRNG returns a generator positioned exactly like the stream the
// engine hands the adversary of a run with the given seed. It is exposed
// so tooling can replay adversary draws offline — the indistinguishability
// experiment uses it to reconstruct the controlled set C of a run.
func AdversaryRNG(seed uint64) *xrand.RNG {
	return xrand.New(xrand.Derive(seed, seedDomainAdv))
}

// ProcRNG returns a generator positioned exactly like the stream the
// engine hands process p of a run with the given seed. Like AdversaryRNG
// it is part of the run's determinism contract: any engine implementation
// that claims to reproduce this package's executions (sim/oracle) must
// seed its processes from these streams.
func ProcRNG(seed uint64, p ProcID) *xrand.RNG {
	return xrand.New(xrand.Derive(seed, seedDomainProc, uint64(p)))
}

// Run executes one simulation to quiescence (or cutoff) and returns its
// Outcome. The returned error reports configuration mistakes only; runs
// cut off by Horizon/MaxEvents return a valid Outcome with HorizonHit set,
// and runs stopped by Cancel/MaxWall additionally set Cancelled.
func Run(cfg Config) (Outcome, error) {
	t0 := time.Now()
	e, err := newEngine(cfg)
	if err != nil {
		return Outcome{}, err
	}
	t1 := time.Now()
	e.run()
	t2 := time.Now()
	o := e.outcome()
	// Wall times are measured per run phase, not per step, so the cost is
	// four clock reads per run — and they are the only Stats fields that
	// are not a pure function of (Config, Seed).
	w := WallStats{Init: t1.Sub(t0), Run: t2.Sub(t1), Finalize: time.Since(t2)}
	w.ShardCommit, w.ShardMerge, w.ShardImbalance = e.shardWall()
	o.Stats.Wall = w
	e.dispose()
	return o, nil
}

// dispose drops the engine's bulk storage before Run returns. The engine
// is garbage the moment Run's frame ends anyway, but a GC mark phase that
// spans two back-to-back runs (the benchmark and sweep steady state)
// would otherwise trace both generations of multi-megabyte engine state,
// inflating the pacer's heap goal; nil-ing the fat references bounds what
// such a cycle can see to the outcome being returned.
func (e *engine) dispose() {
	e.pt = procTable{}
	e.cal = calendar{}
	e.sched = scheduler{}
	e.procs, e.outboxes, e.sendLog, e.lanes = nil, nil, nil, nil
	e.class, e.linkDown, e.graph = nil, nil, nil
}

type engine struct {
	cfg       Config
	n         int
	horizon   Step
	maxEvents int64

	now   Step
	procs []Process
	adv   AdversaryInstance

	pt    procTable // per-process state, struct-of-arrays (proctable.go)
	cal   calendar  // in-flight messages, bucketed by delivery step
	sched scheduler // indexed next-event queue (see sched.go)

	sendLog  []SendRecord
	outboxes []Outbox
	dueBuf   []ProcID

	awakeCorrect      int
	totalPending      int64
	inflightToCorrect int64
	msgTotal          int64
	crashCount        int
	crashesEver       int
	eventCount        int64
	horizonHit        bool
	cancelled         bool
	lastSample        Step

	// Fault-model state (faults.go). faults is the run's (copied) fault
	// plan, nil when inactive. class and linkDown are the adversary's
	// partition classes and downed links; both are read-only outside
	// Observe, so shard lanes read them freely. linkActive is the hot
	// path's one-bool gate: it goes true the first time any link-state
	// write happens and never resets, so fault-free runs pay one
	// predictable branch per send. everRecovered gates the delivery path's
	// pre-crash-residue check the same way.
	faults        *FaultPlan
	class         []int32
	linkDown      map[int64]struct{}
	linkActive    bool
	everRecovered bool

	// graph is the live communication graph (topology.go), nil for the
	// complete graph with no edge edits — the hot path's one-nil-check
	// gate, like linkActive. A complete-base graph materializes lazily on
	// the first adversary edge edit. Edge writes happen only in Observe
	// (serial, before commits), so shard lanes read it concurrently.
	graph *Graph

	// Stall detection (Config.StallWindow): stallSig is the progress
	// signature — deliveries plus lifecycle transitions — at the last
	// event that advanced it, stallBase the event count then. The run
	// stalls when eventCount outruns stallBase by the window with the
	// signature unchanged.
	stallWindow int64
	stallSig    int64
	stallBase   int64
	stalled     bool

	// Observability (see stats.go). Lanes count into private deltas that
	// the merge folds in lane order, so Stats is identical for every lane
	// count. Per-kind send counts stay in the lanes until stats() sums them.
	st       Stats
	inflight int64 // messages currently in the calendar

	// lanes are the shard lanes of the commit phase (shard.go). Lane 0
	// exists from construction and is the whole commit phase of a step
	// that runs inline; the others are added the first time a step forks
	// over them. Lanes persist for the run — calendar refs point into lane
	// payload tables, so lanes never shrink. mergeWall accumulates the
	// merge's wall time after forked phases, for WallStats.
	workers   int
	wg        sync.WaitGroup
	lanes     []shardLane
	mergeWall time.Duration
}

// maxProcs bounds N so that process indexes fit the 4-byte fields of
// imessage and odraft.
const maxProcs = 1<<31 - 1

func newEngine(cfg Config) (*engine, error) {
	switch {
	case cfg.N < 1:
		return nil, fmt.Errorf("sim: N = %d, need N ≥ 1", cfg.N)
	case cfg.N > maxProcs:
		return nil, fmt.Errorf("sim: N = %d, need N < 2³¹", cfg.N)
	case cfg.F < 0 || cfg.F >= cfg.N:
		return nil, fmt.Errorf("sim: F = %d, need 0 ≤ F < N = %d", cfg.F, cfg.N)
	case cfg.Protocol == nil:
		return nil, errors.New("sim: Config.Protocol is required")
	case cfg.Horizon < 0:
		return nil, fmt.Errorf("sim: Horizon = %d, need ≥ 0", cfg.Horizon)
	case cfg.MaxEvents < 0:
		return nil, fmt.Errorf("sim: MaxEvents = %d, need ≥ 0", cfg.MaxEvents)
	case cfg.StallWindow < 0:
		return nil, fmt.Errorf("sim: StallWindow = %d, need ≥ 0", cfg.StallWindow)
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
	e := &engine{
		cfg:          cfg,
		n:            n,
		horizon:      cfg.Horizon,
		maxEvents:    cfg.MaxEvents,
		outboxes:     make([]Outbox, n),
		awakeCorrect: n,
		workers:      cfg.Workers,
		stallWindow:  cfg.StallWindow,
	}
	if cfg.Faults.Active() {
		plan := *cfg.Faults
		e.faults = &plan
	}
	if cfg.Topology.Active() {
		e.graph = NewGraph(cfg.Topology, n)
	}
	if e.horizon == 0 {
		e.horizon = DefaultHorizon
	}
	if e.maxEvents == 0 {
		e.maxEvents = DefaultMaxEvents
	}
	e.pt.init(n)
	e.cal.init()
	e.sched.init(n)
	e.ensureLanes(1)
	e.sched.scheduleAll(1) // first boundary of every process: anchor 0 + δ 1
	envs := make([]Env, n)
	// One backing array for all process generators: each env points into
	// it, seeded to exactly the ProcRNG(seed, p) stream. Batching the
	// storage drops an allocation per process — at N=10⁶, a million boxed
	// RNGs — without touching the determinism contract.
	rngs := make([]xrand.RNG, n)
	for p := 0; p < n; p++ {
		e.pt.setAwake(ProcID(p), true)
		e.pt.delta[p] = 1
		e.pt.delay[p] = 1
		e.outboxes[p].reset(ProcID(p), n)
		rngs[p].Seed(xrand.Derive(cfg.Seed, seedDomainProc, uint64(p)))
		envs[p] = Env{
			ID:  ProcID(p),
			N:   n,
			F:   cfg.F,
			RNG: &rngs[p],
		}
	}
	e.procs = cfg.Protocol.New(envs)
	if len(e.procs) != n {
		return nil, fmt.Errorf("sim: protocol %q built %d processes, want %d",
			cfg.Protocol.Name(), len(e.procs), n)
	}
	if cfg.Adversary != nil {
		advRNG := xrand.New(xrand.Derive(cfg.Seed, seedDomainAdv))
		e.adv = cfg.Adversary.New(n, cfg.F, advRNG)
	}
	return e, nil
}

func (e *engine) run() {
	if e.adv != nil {
		e.adv.Init(NewView(e), NewControl(e))
	}
	watched := e.cfg.Cancel != nil || e.cfg.MaxWall > 0
	var deadline time.Time
	if e.cfg.MaxWall > 0 {
		deadline = time.Now().Add(e.cfg.MaxWall)
	}
	poll := 0
	for !e.quiescent() {
		if watched {
			if poll&(cancelPollEvery-1) == 0 && e.interrupted(deadline) {
				e.horizonHit = true
				e.cancelled = true
				break
			}
			poll++
		}
		if !e.stepOnce() {
			break
		}
	}
	if e.cfg.Sample != nil && (e.lastSample == 0 || e.lastSample != e.now) {
		e.cfg.Sample(e.snapshot()) // final point of the curve
	}
	if e.cfg.Trace != nil {
		note := "quiescence"
		switch {
		case e.cancelled:
			note = "cancelled"
		case e.stalled:
			note = "stalled"
		case e.horizonHit:
			note = "horizon"
		}
		e.trace(TraceEvent{Kind: TraceEnd, Step: e.now, Proc: -1, Other: -1, Note: note})
	}
}

// stepOnce advances the run by one active global step — adversary
// observation, deliveries, local steps, sampling — and reports whether it
// did. It returns false at a horizon or event-budget cutoff (setting
// horizonHit) so run's loop stops. Callers must have checked quiescent
// first. It is extracted from run so the allocation-regression tests can
// drive the steady-state loop step by step under testing.AllocsPerRun;
// with tracing, sampling and the adversary all absent, one call allocates
// nothing after warm-up — the property alloc_test.go pins.
func (e *engine) stepOnce() bool {
	t, ok := e.nextEventTime()
	if !ok {
		// Unreachable: a non-quiescent system always has either an
		// awake (hence schedulable) process, a pending mailbox, or a
		// message in flight. Treat it as a cutoff rather than hanging.
		e.horizonHit = true
		return false
	}
	if t > e.horizon || e.eventCount > e.maxEvents {
		e.horizonHit = true
		return false
	}
	if e.stallWindow > 0 {
		// Progress signature: a run moves forward only through deliveries
		// and lifecycle transitions. A system that churns through a full
		// event window of local steps and sends without any of them — the
		// partitioned/fully-lossy regime, where every send is dropped — can
		// never quiesce and is stopped here as Stalled instead of spinning
		// to Horizon/MaxEvents. The check is a pure function of the
		// deterministic counters, so engine and oracle stall on the
		// identical event.
		sig := e.st.Deliveries + e.st.Sleeps + e.st.Wakes + e.st.Crashes + e.st.Recoveries
		if sig != e.stallSig {
			e.stallSig = sig
			e.stallBase = e.eventCount
		} else if e.eventCount-e.stallBase >= e.stallWindow {
			e.stalled = true
			e.horizonHit = true
			return false
		}
	}
	e.now = t
	e.st.ActiveSteps++
	if e.adv != nil {
		events := e.sendLog
		e.sendLog = e.sendLog[:0]
		e.adv.Observe(t, events, NewView(e), NewControl(e))
	}
	e.deliver(t)
	e.localSteps(t)
	if e.cfg.Sample != nil && t >= e.lastSample+e.cfg.SampleEvery {
		e.lastSample = t
		e.cfg.Sample(e.snapshot())
	}
	return true
}

// interrupted reports whether the run should stop early: its Cancel
// channel is closed, or its MaxWall deadline has passed.
func (e *engine) interrupted(deadline time.Time) bool {
	if e.cfg.Cancel != nil {
		select {
		case <-e.cfg.Cancel:
			return true
		default:
		}
	}
	return !deadline.IsZero() && time.Now().After(deadline)
}

func (e *engine) quiescent() bool {
	return e.awakeCorrect == 0 && e.totalPending == 0 && e.inflightToCorrect == 0
}

// nextEventTime returns the earliest future global step at which anything
// can happen: a message arrival, or a local step of a process that is
// awake or has undelivered mail. Steps in between are provably inert and
// are skipped, which is what makes delays of τᵏ⁺ˡ steps affordable. The
// lookup is O(log N) against the scheduler's event index; no per-process
// scan happens here.
func (e *engine) nextEventTime() (Step, bool) {
	return e.sched.next()
}

// nextBoundary returns the earliest local-step boundary of p that is
// strictly after the current step.
func (e *engine) nextBoundary(p ProcID) Step {
	a, d := e.pt.anchor[p], e.pt.delta[p]
	min := e.now + 1
	if a+d >= min {
		return a + d
	}
	k := (min - a + d - 1) / d
	return a + k*d
}

// boundaryAt reports whether p has a local-step boundary exactly at t.
func (e *engine) boundaryAt(p ProcID, t Step) bool {
	a := e.pt.anchor[p]
	return t > a && (t-a)%e.pt.delta[p] == 0
}

// boundaryOnOrAfter returns p's earliest local-step boundary ≥ t, where t
// is the current step. Used when a mailbox arrival makes a sleeping
// process schedulable: its boundary may be this very step.
func (e *engine) boundaryOnOrAfter(p ProcID, t Step) Step {
	if e.boundaryAt(p, t) {
		return t
	}
	return e.nextBoundary(p)
}

// payloadVal resolves a packed calendar ref (lane index << 32 | slot) to
// its boxed payload in the table of the lane that interned it. The high
// fault-marker bits (faults.go) are masked off first.
func (e *engine) payloadVal(ref int64) Payload {
	ref &^= refFaultMask
	return e.lanes[ref>>32].ptab.val(int32(ref))
}

// releaseRef drops one calendar copy of a packed ref.
func (e *engine) releaseRef(ref int64) {
	ref &^= refFaultMask
	e.lanes[ref>>32].ptab.release(int32(ref))
}

func (e *engine) deliver(t Step) {
	bucket := e.cal.take(t)
	if bucket == nil {
		return
	}
	for _, m := range bucket.msgs {
		e.inflight--
		to := ProcID(m.to)
		dup := m.ref&refDupBit != 0
		if e.pt.crashed(to) || (e.everRecovered && m.sentAt < e.pt.lastCrash[to]) {
			// inflightTo[to] was zeroed when to crashed; just drop. The
			// second clause is pre-crash residue: to has recovered, but
			// this message was sent before its last crash, so the network
			// already discarded it (and its accounting) at crash time.
			e.st.DroppedCrashed++
			if e.cfg.Trace != nil {
				note := "crashed"
				if dup {
					note = "crashed dup"
				}
				e.trace(TraceEvent{Kind: TraceDrop, Step: t, Proc: to, Other: ProcID(m.from),
					Payload: e.payloadVal(m.ref), Note: note})
			}
			e.releaseRef(m.ref)
			continue
		}
		if m.ref&refCorruptBit != 0 {
			// Corrupted in transit: the receiver detects and discards it
			// at delivery without reading it. Unlike the crashed drop, the
			// message's in-flight accounting is still live.
			e.st.CorruptDrops++
			e.pt.inflightTo[to]--
			e.inflightToCorrect--
			if e.cfg.Trace != nil {
				e.trace(TraceEvent{Kind: TraceDrop, Step: t, Proc: to, Other: ProcID(m.from),
					Payload: e.payloadVal(m.ref), Note: "corrupt"})
			}
			e.releaseRef(m.ref)
			continue
		}
		e.st.Deliveries++
		if dup {
			e.st.DupDeliveries++
		}
		// Materialize the boxed Message here, at the protocol boundary —
		// the only point the payload ref becomes an interface value again.
		pl := e.payloadVal(m.ref)
		e.pt.pushMail(to, Message{
			From: ProcID(m.from), To: to, SentAt: m.sentAt, DeliverAt: t, Payload: pl,
		})
		e.releaseRef(m.ref)
		e.pt.pendingCount[to]++
		e.totalPending++
		e.pt.inflightTo[to]--
		e.inflightToCorrect--
		if e.sched.scheduledAt(to) == noSchedule {
			// Mail woke a sleeping process: index its next boundary.
			e.sched.scheduleProc(to, e.boundaryOnOrAfter(to, t))
		}
		if e.cfg.Trace != nil {
			note := ""
			if dup {
				note = "dup"
			}
			e.trace(TraceEvent{Kind: TraceArrive, Step: t, Proc: to, Other: ProcID(m.from), Payload: pl, Note: note})
		}
	}
	if e.totalPending > e.st.MaxPending {
		e.st.MaxPending = e.totalPending
	}
	e.cal.release(bucket)
}

// localSteps runs the local step of every process due at t and publishes
// the effects. There is one way to do that — stepOne, prepareOne against a
// shard lane, mergeLane (shard.go) — and two ways to schedule it. A step
// worth splitting forks over the run's lanes and merges lane by lane.
// Anything else runs lane 0 right here, merging it every inlineChunk
// processes so that its buffers stay small however dense the step; since
// the merge runs Commit hooks, every Step has to have returned first.
func (e *engine) localSteps(t Step) {
	due := e.sched.collectDue(t, e.dueBuf[:0])
	e.dueBuf = due
	if len(due) == 0 {
		return
	}
	if e.workers > 1 && len(due) >= 2*e.workers {
		shards := min(e.workers, maxShardLanes)
		e.forkLanes(t, due, shards)
		start := time.Now()
		for s := 0; s < shards; s++ {
			e.mergeLane(t, &e.lanes[s], lanePart(due, shards, s))
			e.foldCounts(&e.lanes[s])
		}
		e.mergeWall += time.Since(start)
		return
	}
	for _, p := range due {
		e.stepOne(t, p)
	}
	ln := &e.lanes[0]
	for len(due) > 0 {
		part := due[:min(len(due), inlineChunk)]
		for _, p := range part {
			e.prepareOne(t, p, ln)
		}
		e.mergeLane(t, ln, part)
		due = due[len(part):]
	}
	e.foldCounts(ln)
}

// stepOne runs the protocol handler of p for its local step at t. It only
// touches p-local engine state, so distinct processes may step in parallel.
// p's outbox is already empty here: newEngine resets it once, and
// prepareOne clears it after draining.
func (e *engine) stepOne(t Step, p ProcID) {
	e.procs[p].Step(t, e.pt.mail[p], &e.outboxes[p])
}

// finishOne is the order-sensitive tail of p's local step, run by the
// merge once every Step of the global step has returned: the protocol's
// Commit hook, the sleep/wake transition, and rescheduling. Runs on the
// run's goroutine, in ascending process order.
func (e *engine) finishOne(t Step, p ProcID) {
	if c, ok := e.procs[p].(Committer); ok {
		c.Commit(t)
	}

	asleep := e.procs[p].Asleep()
	switch {
	case asleep && e.pt.awake(p):
		e.pt.setAwake(p, false)
		e.awakeCorrect--
		e.st.Sleeps++
		if e.cfg.Trace != nil {
			e.trace(TraceEvent{Kind: TraceSleep, Step: t, Proc: p, Other: -1})
		}
	case !asleep && !e.pt.awake(p):
		e.pt.setAwake(p, true)
		e.awakeCorrect++
		e.st.Wakes++
		if e.cfg.Trace != nil {
			e.trace(TraceEvent{Kind: TraceWake, Step: t, Proc: p, Other: -1})
		}
	}

	// Reindex: the mailbox is empty now, so p is schedulable iff awake.
	// collectDue cleared p's key when it put p in the due set.
	if e.pt.awake(p) {
		e.sched.scheduleProc(p, t+e.pt.delta[p])
	} else {
		e.sched.unscheduleProc(p)
	}
}

// linkBlocked reports whether the network blocks sends from → to: the
// endpoints sit in different partition classes, or the adversary downed
// the directed link. Read-only during commits, so shard lanes call it
// concurrently.
func (e *engine) linkBlocked(from, to ProcID) bool {
	if e.class != nil && e.class[from] != e.class[to] {
		return true
	}
	if len(e.linkDown) > 0 {
		if _, down := e.linkDown[linkKey(from, to)]; down {
			return true
		}
	}
	return false
}

func (e *engine) crashProcess(p ProcID) {
	e.pt.setCrashed(p)
	e.pt.lastCrash[p] = e.now
	e.crashCount++
	e.crashesEver++
	e.st.Crashes++
	if e.pt.awake(p) {
		e.pt.setAwake(p, false)
		e.awakeCorrect--
	}
	e.totalPending -= e.pt.pendingCount[p]
	e.pt.pendingCount[p] = 0
	e.pt.mail[p] = nil // drop the buffer: a crashed mailbox is never read again
	e.inflightToCorrect -= e.pt.inflightTo[p]
	e.pt.inflightTo[p] = 0
	e.sched.unscheduleProc(p)
	e.trace(TraceEvent{Kind: TraceCrash, Step: e.now, Proc: p, Other: -1})
}

func (e *engine) trace(ev TraceEvent) {
	if e.cfg.Trace != nil {
		e.cfg.Trace.Event(ev)
	}
}

func (e *engine) outcome() Outcome {
	o := Outcome{
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
		Cancelled:  e.cancelled,
	}
	if e.cfg.Adversary != nil {
		o.Adversary = e.cfg.Adversary.Name()
		o.Strategy = e.adv.Label()
	}
	for p := 0; p < e.n; p++ {
		if e.pt.crashed(ProcID(p)) {
			continue
		}
		if e.pt.lastSend[p] > o.TEnd {
			o.TEnd = e.pt.lastSend[p]
		}
		if e.pt.delta[p] > o.DeltaMax {
			o.DeltaMax = e.pt.delta[p]
		}
		if e.pt.delay[p] > o.DelayMax {
			o.DelayMax = e.pt.delay[p]
		}
	}
	if norm := o.DeltaMax + o.DelayMax; norm > 0 {
		o.Time = float64(o.TEnd) / float64(norm)
	}
	o.Gathered = e.gathered()
	o.Stats = e.stats()
	return o
}

// stats seals the observability block: run-wide totals are copied from
// the engine's authoritative counters, the scheduler contributes its heap
// operation counts, and the lanes' per-kind send counters are summed and
// sorted into a stable order. Wall times are stamped by Run, after this
// returns.
func (e *engine) stats() Stats {
	st := e.st
	st.Events = e.eventCount
	st.Sends = e.msgTotal
	st.HeapPushes = e.sched.pushes
	st.HeapPops = e.sched.pops
	for i := range e.lanes {
		for _, kc := range e.lanes[i].kinds {
			st.MessagesByKind = addKind(st.MessagesByKind, kc)
		}
	}
	sortKinds(st.MessagesByKind)
	return st
}

// snapshot computes a progress point for Config.Sample.
func (e *engine) snapshot() Snapshot {
	s := Snapshot{
		Now:          e.now,
		AwakeCorrect: e.awakeCorrect,
		Messages:     e.msgTotal,
		Crashed:      e.crashCount,
	}
	correct := e.n - e.crashCount
	if correct < 2 {
		s.Coverage = 1
		return s
	}
	known, pairs := 0, 0
	for p := 0; p < e.n; p++ {
		if e.pt.crashed(ProcID(p)) {
			continue
		}
		for q := 0; q < e.n; q++ {
			if q == p || e.pt.crashed(ProcID(q)) {
				continue
			}
			pairs++
			if e.procs[p].Knows(ProcID(q)) {
				known++
			}
		}
	}
	s.Coverage = float64(known) / float64(pairs)
	return s
}

// gathered checks rumor gathering (Definition II.1): every correct process
// knows the gossip of every correct process.
func (e *engine) gathered() bool {
	for p := 0; p < e.n; p++ {
		if e.pt.crashed(ProcID(p)) {
			continue
		}
		for q := 0; q < e.n; q++ {
			if q == p || e.pt.crashed(ProcID(q)) {
				continue
			}
			if !e.procs[p].Knows(ProcID(q)) {
				return false
			}
		}
	}
	return true
}
