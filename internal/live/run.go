package live

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ugf-sim/ugf/internal/live/wire"
	"github.com/ugf-sim/ugf/internal/sim"
)

// runtime is the live coordinator: it owns the logical clock and every
// piece of global bookkeeping, and drives the node goroutines through the
// step barrier. The division of labor mirrors the engine's phase
// discipline — nodes run their protocol Steps and sending-side interposer
// concurrently; the coordinator serializes everything the engine does
// serially (crash application, commit hooks, sleep/wake transitions,
// stats, trace emission) in ascending process order, which is what keeps
// live runs deterministic and their traces auditable by the same checker.
type runtime struct {
	cfg         Config
	n           int
	horizon     sim.Step
	maxEvents   int64
	stallWindow int64

	tr    Transport
	itp   *interposer
	nodes []*node
	procs []sim.Process

	doneCh   chan *node
	notifyCh chan struct{}
	stop     chan struct{}
	recvStop chan struct{}
	nodeWG   sync.WaitGroup
	recvWG   sync.WaitGroup

	acked           atomic.Int64 // frames staged by receivers, cumulative
	framesForwarded int64        // frames handed to the transport, cumulative

	errMu    sync.Mutex
	firstErr error

	// Logical state, coordinator-owned.
	now          sim.Step
	awake        []bool
	crashStep    []sim.Step // 0 = alive; else the step the crash took effect
	crashedSnap  []bool     // immutable snapshot shipped to nodes; copy-on-write
	pendingCrash []Crash    // schedule, sorted by (At, Proc), not yet applied
	awakeCorrect int
	crashCount   int

	arrivals    arrivalHeap
	inflight    int64
	inflightTo  []int64
	inflightCor int64 // in flight to correct processes

	eventCount int64
	msgTotal   int64
	st         sim.Stats
	stallSig   int64
	stallBase  int64
	horizonHit bool
	stalled    bool

	// Per-step scratch.
	dueCnt   []int64
	dueGood  []int64 // due arrivals that passed their checksum
	touched  []sim.ProcID
	parts    []*node
	crashEv  []sim.TraceEvent
	arrMerge []mergedArr

	wall sim.WallStats
}

// mergedArr is one arrival-phase trace event with its global sort key,
// collected across participants before emission.
type mergedArr struct {
	key arrKey
	ev  sim.TraceEvent
}

// arrival is one in-flight message's delivery appointment. corrupt rides
// along because it changes participation: a corrupt arrival is dropped in
// the deliver phase and so cannot, on its own, make a sleeping receiver
// take a local step.
type arrival struct {
	at      sim.Step
	to      sim.ProcID
	corrupt bool
}

// arrivalHeap is a min-heap on (at, to): the coordinator's calendar.
type arrivalHeap []arrival

func (h arrivalHeap) Len() int { return len(h) }
func (h arrivalHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].to < h[j].to
}
func (h arrivalHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *arrivalHeap) Push(x any)   { *h = append(*h, x.(arrival)) }
func (h *arrivalHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func newRuntime(cfg Config) (*runtime, error) {
	initStart := time.Now()
	n := cfg.N
	r := &runtime{
		cfg:          cfg,
		n:            n,
		horizon:      cfg.Horizon,
		maxEvents:    cfg.MaxEvents,
		stallWindow:  cfg.StallWindow,
		itp:          newInterposer(&cfg),
		doneCh:       make(chan *node, n),
		notifyCh:     make(chan struct{}, 1),
		stop:         make(chan struct{}),
		recvStop:     make(chan struct{}),
		awake:        make([]bool, n),
		crashStep:    make([]sim.Step, n),
		inflightTo:   make([]int64, n),
		dueCnt:       make([]int64, n),
		dueGood:      make([]int64, n),
		awakeCorrect: n,
	}
	if r.horizon == 0 {
		r.horizon = sim.DefaultHorizon
	}
	if r.maxEvents == 0 {
		r.maxEvents = sim.DefaultMaxEvents
	}
	r.pendingCrash = append(r.pendingCrash, cfg.Crashes...)
	sort.Slice(r.pendingCrash, func(i, j int) bool {
		a, b := r.pendingCrash[i], r.pendingCrash[j]
		if a.At != b.At {
			return a.At < b.At
		}
		return a.Proc < b.Proc
	})

	envs := make([]sim.Env, n)
	for p := 0; p < n; p++ {
		r.awake[p] = true
		envs[p] = sim.Env{ID: sim.ProcID(p), N: n, F: cfg.F, RNG: sim.ProcRNG(cfg.Seed, sim.ProcID(p))}
	}
	r.procs = cfg.Protocol.New(envs)
	if len(r.procs) != n {
		return nil, fmt.Errorf("live: protocol %q built %d processes for N=%d", cfg.Protocol.Name(), len(r.procs), n)
	}

	r.tr = cfg.Transport
	if r.tr == nil {
		r.tr = NewChanTransport(n)
	}

	r.nodes = make([]*node, n)
	for p := 0; p < n; p++ {
		nd := &node{
			id:     sim.ProcID(p),
			n:      n,
			proc:   r.procs[p],
			out:    sim.NewOutbox(sim.ProcID(p), n),
			itp:    r.itp,
			tr:     r.tr,
			trace:  cfg.Trace != nil,
			stepCh: make(chan stepReq, 1),
		}
		r.nodes[p] = nd
		r.nodeWG.Add(1)
		go func() {
			defer r.nodeWG.Done()
			nd.loop(r.doneCh, r.stop)
		}()
		r.recvWG.Add(1)
		go r.receive(nd)
	}
	r.wall.Init = time.Since(initStart)
	return r, nil
}

// receive is node nd's reader goroutine: decode incoming frames, stage
// them on the node, and acknowledge each one so the coordinator's step
// barrier can observe that every forwarded frame has physically landed.
// It never blocks on anything the coordinator holds — staging is a short
// critical section and the ack is an atomic plus a non-blocking ping — so
// transports can always drain.
func (r *runtime) receive(nd *node) {
	defer r.recvWG.Done()
	stream := r.tr.Recv(int(nd.id))
	for {
		select {
		case frame, ok := <-stream:
			if !ok {
				return
			}
			r.stageFrame(nd, frame)
			r.acked.Add(1)
			select {
			case r.notifyCh <- struct{}{}:
			default:
			}
		case <-r.recvStop:
			return
		}
	}
}

// stageFrame decodes one frame and stages the arrival. A failed payload
// checksum stages the intact header as a corrupt arrival (detected loss);
// any other decode failure poisons the run — the runtime only ever sees
// its own frames, so garbage means a transport bug.
func (r *runtime) stageFrame(nd *node, frame []byte) {
	body, err := wire.ParseFrame(frame)
	if err != nil {
		r.setErr(fmt.Errorf("live: node %d received an unparsable frame: %w", nd.id, err))
		return
	}
	env, err := wire.DecodeEnvelope(body)
	corrupt := false
	switch {
	case errors.Is(err, wire.ErrPayloadChecksum):
		corrupt = true
	case err != nil:
		r.setErr(fmt.Errorf("live: node %d received an undecodable envelope: %w", nd.id, err))
		return
	}
	if env.To != nd.id {
		r.setErr(fmt.Errorf("live: node %d received a frame addressed to %d", nd.id, env.To))
		return
	}
	nd.stage(inMsg{env: env, corrupt: corrupt})
}

func (r *runtime) setErr(err error) {
	r.errMu.Lock()
	if r.firstErr == nil {
		r.firstErr = err
	}
	r.errMu.Unlock()
}

func (r *runtime) getErr() error {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return r.firstErr
}

// shutdown tears the run down in deadlock-free order: stop the nodes
// (unblocking any in-flight transport Send first by closing the
// transport), then the receivers.
func (r *runtime) shutdown() {
	close(r.stop)
	r.tr.Close()
	r.nodeWG.Wait()
	close(r.recvStop)
	r.recvWG.Wait()
}

func (r *runtime) quiescent() bool {
	return r.awakeCorrect == 0 && r.inflightCor == 0
}

// nextEventTime mirrors the engine's scheduler: with any awake (hence
// correct) process the next active step is now+1; otherwise the earliest
// calendar arrival. Steps in between are provably inert.
func (r *runtime) nextEventTime() (sim.Step, bool) {
	next := sim.Step(math.MaxInt64)
	if r.awakeCorrect > 0 {
		next = r.now + 1
	}
	if len(r.arrivals) > 0 && r.arrivals[0].at < next {
		next = r.arrivals[0].at
	}
	return next, next != sim.Step(math.MaxInt64)
}

func (r *runtime) run() (sim.Outcome, error) {
	runStart := time.Now()
	for !r.quiescent() {
		ok, err := r.stepOnce()
		if err != nil {
			return sim.Outcome{}, err
		}
		if !ok {
			break
		}
	}
	if r.cfg.Trace != nil {
		note := "quiescence"
		switch {
		case r.stalled:
			note = "stalled"
		case r.horizonHit:
			note = "horizon"
		}
		r.cfg.Trace.Event(sim.TraceEvent{Kind: sim.TraceEnd, Step: r.now, Proc: -1, Other: -1, Note: note})
	}
	r.wall.Run = time.Since(runStart)
	return r.outcome(), nil
}

// stepOnce executes one active global step, engine-ordered: cutoff and
// stall checks, crash application, deliveries, concurrent local steps
// behind the ack barrier, serial commits, trace emission.
func (r *runtime) stepOnce() (bool, error) {
	t, ok := r.nextEventTime()
	if !ok {
		r.horizonHit = true
		return false, nil
	}
	if t > r.horizon || r.eventCount > r.maxEvents {
		r.horizonHit = true
		return false, nil
	}
	if r.stallWindow > 0 {
		// Same progress signature as the engine: deliveries and lifecycle
		// transitions; a full event window without one is a stall.
		sig := r.st.Deliveries + r.st.Sleeps + r.st.Wakes + r.st.Crashes
		if sig != r.stallSig {
			r.stallSig = sig
			r.stallBase = r.eventCount
		} else if r.eventCount-r.stallBase >= r.stallWindow {
			r.stalled = true
			r.horizonHit = true
			return false, nil
		}
	}
	r.now = t
	r.st.ActiveSteps++

	// Crash application — the interposer's stand-in for the adversary's
	// Observe hook: effective before this step's deliveries and sends.
	r.crashEv = r.crashEv[:0]
	for len(r.pendingCrash) > 0 && r.pendingCrash[0].At <= t {
		r.applyCrash(r.pendingCrash[0].Proc, t)
		r.pendingCrash = r.pendingCrash[1:]
	}

	// Pop this step's arrivals off the calendar; nodes hold the actual
	// bytes, the coordinator only accounts them.
	r.touched = r.touched[:0]
	for len(r.arrivals) > 0 && r.arrivals[0].at <= t {
		a := heap.Pop(&r.arrivals).(arrival)
		r.inflight--
		if r.crashStep[a.to] == 0 {
			r.inflightTo[a.to]--
			r.inflightCor--
		}
		if r.dueCnt[a.to] == 0 {
			r.touched = append(r.touched, a.to)
		}
		r.dueCnt[a.to]++
		if !a.corrupt {
			r.dueGood[a.to]++
		}
	}

	// Fan the step out to its participants: every awake correct node,
	// every correct node with arrivals due, and — as drain-only zombies —
	// crashed nodes with arrivals due.
	r.parts = r.parts[:0]
	for p := 0; p < r.n; p++ {
		crashed := r.crashStep[p] != 0
		zombie := crashed && r.dueCnt[p] > 0
		stepper := !crashed && (r.awake[p] || r.dueGood[p] > 0)
		// All-corrupt due set at a sleeping correct node: the deliver
		// phase discards it without a local step.
		drain := !crashed && !stepper && r.dueCnt[p] > 0
		if !zombie && !stepper && !drain {
			continue
		}
		r.parts = append(r.parts, r.nodes[p])
		r.nodes[p].zombie = zombie || drain
		r.nodes[p].stepCh <- stepReq{t: t, crashed: r.crashedSnap, zombie: zombie, drain: drain}
	}

	// Barrier, phase 1: every participant has finished its local step.
	for pending := len(r.parts); pending > 0; pending-- {
		<-r.doneCh
	}
	// Phase 2: every frame those steps forwarded has been staged by its
	// receiver. Only then is the next step's due-set complete.
	for _, nd := range r.parts {
		r.framesForwarded += int64(nd.report.frames)
	}
	for r.acked.Load() < r.framesForwarded {
		<-r.notifyCh
	}
	if err := r.getErr(); err != nil {
		return false, err
	}

	// Account the step from the reports, in ascending process order.
	var deliveredTotal int64
	for _, nd := range r.parts {
		rep := &nd.report
		if rep.err != nil {
			return false, rep.err
		}
		if got := rep.delivered + rep.corruptDrops + rep.crashDrops; got != r.dueCnt[nd.id] {
			return false, fmt.Errorf("live: node %d consumed %d arrivals at step %d, calendar says %d",
				nd.id, got, t, r.dueCnt[nd.id])
		}
		deliveredTotal += rep.delivered
		r.st.Deliveries += rep.delivered
		r.st.DupDeliveries += rep.dupDelivered
		r.st.CorruptDrops += rep.corruptDrops
		r.st.DroppedCrashed += rep.crashDrops + rep.dropsCrashed
		r.st.OmittedSends += rep.dropsOmit
		r.st.DroppedLink += rep.dropsLoss
		r.msgTotal += rep.sends
		r.eventCount += rep.sends
		if !nd.zombie {
			r.st.LocalSteps++
			r.eventCount++
		}
		for _, f := range nd.fw {
			heap.Push(&r.arrivals, arrival{at: f.arriveAt, to: f.to, corrupt: f.corrupt})
			r.inflight++
			r.inflightTo[f.to]++
			r.inflightCor++
		}
	}
	if r.inflight > r.st.MaxInFlight {
		r.st.MaxInFlight = r.inflight
	}
	if deliveredTotal > r.st.MaxPending {
		r.st.MaxPending = deliveredTotal
	}
	for _, p := range r.touched {
		r.dueCnt[p], r.dueGood[p] = 0, 0
	}

	// Serial commit phase, ascending process order: protocol Commit hooks
	// publish shared state, then the sleep/wake transition — exactly the
	// engine's finishOne, run by the coordinator while the nodes are
	// parked.
	for _, nd := range r.parts {
		if nd.zombie {
			continue
		}
		if c, ok := nd.proc.(sim.Committer); ok {
			c.Commit(t)
		}
		p := int(nd.id)
		asleep := nd.proc.Asleep()
		switch {
		case asleep && r.awake[p]:
			r.awake[p] = false
			r.awakeCorrect--
			r.st.Sleeps++
			if r.cfg.Trace != nil {
				nd.prcEvs = append(nd.prcEvs, sim.TraceEvent{Kind: sim.TraceSleep, Step: t, Proc: nd.id, Other: -1})
			}
		case !asleep && !r.awake[p]:
			r.awake[p] = true
			r.awakeCorrect++
			r.st.Wakes++
			if r.cfg.Trace != nil {
				nd.prcEvs = append(nd.prcEvs, sim.TraceEvent{Kind: sim.TraceWake, Step: t, Proc: nd.id, Other: -1})
			}
		}
	}

	r.emitStep()
	return true, nil
}

// applyCrash takes node p down at step t: it stops stepping, its sends
// are dropped by every sender (via the crashed snapshot), and the network
// forgets what was in flight to it.
func (r *runtime) applyCrash(p sim.ProcID, t sim.Step) {
	r.crashStep[p] = t
	r.crashCount++
	r.st.Crashes++
	if r.awake[p] {
		r.awake[p] = false
		r.awakeCorrect--
	}
	r.inflightCor -= r.inflightTo[p]
	r.inflightTo[p] = 0
	// Copy-on-write: earlier snapshots may still be in flight to nodes.
	snap := make([]bool, r.n)
	copy(snap, r.crashedSnap)
	snap[p] = true
	r.crashedSnap = snap
	if r.cfg.Trace != nil {
		r.crashEv = append(r.crashEv, sim.TraceEvent{Kind: sim.TraceCrash, Step: t, Proc: p, Other: -1})
	}
}

// emitStep publishes the step's trace in the engine's serial order:
// crash events, then every arrival-phase event in global calendar order,
// then each stepping process's block (local step, sends and send-drops,
// sleep/wake) in ascending process order.
func (r *runtime) emitStep() {
	if r.cfg.Trace == nil {
		return
	}
	sink := r.cfg.Trace
	for _, ev := range r.crashEv {
		sink.Event(ev)
	}
	r.arrMerge = r.arrMerge[:0]
	for _, nd := range r.parts {
		for i, ev := range nd.arrEvs {
			r.arrMerge = append(r.arrMerge, mergedArr{key: nd.arrKey[i], ev: ev})
		}
	}
	sort.SliceStable(r.arrMerge, func(i, j int) bool {
		return r.arrMerge[i].key.less(r.arrMerge[j].key)
	})
	for _, m := range r.arrMerge {
		sink.Event(m.ev)
	}
	for _, nd := range r.parts {
		for _, ev := range nd.prcEvs {
			sink.Event(ev)
		}
	}
}

// outcome assembles the run's Outcome with the engine's exact semantics:
// TEnd over processes correct at the end, Time normalized by δ+d = 2 (the
// live baseline), gathering by the same O(N²) Knows scan.
func (r *runtime) outcome() sim.Outcome {
	finalStart := time.Now()
	o := sim.Outcome{
		Protocol:   r.cfg.Protocol.Name(),
		Adversary:  "none",
		N:          r.n,
		F:          r.cfg.F,
		Seed:       r.cfg.Seed,
		Quiescence: r.now,
		Messages:   r.msgTotal,
		Crashed:    r.crashCount,
		HorizonHit: r.horizonHit,
		Stalled:    r.stalled,
	}
	for p := 0; p < r.n; p++ {
		if r.crashStep[p] != 0 {
			continue
		}
		if r.nodes[p].lastSend > o.TEnd {
			o.TEnd = r.nodes[p].lastSend
		}
		o.DeltaMax, o.DelayMax = 1, 1
	}
	if norm := o.DeltaMax + o.DelayMax; norm > 0 {
		o.Time = float64(o.TEnd) / float64(norm)
	}
	o.Gathered = r.gathered()
	st := r.st
	st.Events = r.eventCount
	st.Sends = r.msgTotal
	// HeapPushes/HeapPops stay zero: they count the sim scheduler's heap,
	// which live replaces with the barrier (simtest.Normalize zeroes them
	// for comparisons anyway).
	st.MessagesByKind = r.mergeKinds()
	o.Stats = st
	r.wall.Finalize = time.Since(finalStart)
	o.Stats.Wall = r.wall
	return o
}

func (r *runtime) gathered() bool {
	for p := 0; p < r.n; p++ {
		if r.crashStep[p] != 0 {
			continue
		}
		for q := 0; q < r.n; q++ {
			if q == p || r.crashStep[q] != 0 {
				continue
			}
			if !r.procs[p].Knows(sim.ProcID(q)) {
				return false
			}
		}
	}
	return true
}

func (r *runtime) mergeKinds() []sim.KindCount {
	var kinds []sim.KindCount
	for _, nd := range r.nodes {
		for _, kc := range nd.kinds {
			found := false
			for i := range kinds {
				if kinds[i].Kind == kc.Kind {
					kinds[i].Count += kc.Count
					found = true
					break
				}
			}
			if !found {
				kinds = append(kinds, kc)
			}
		}
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i].Kind < kinds[j].Kind })
	return kinds
}
