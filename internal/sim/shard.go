package sim

import (
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// The commit phase: shard lanes and their merge.
//
// The local steps of a global step have one execution path. Processes are
// assigned to shard lanes in contiguous ranges; a lane runs the commit
// *effects* of its processes (prepareOne) against lane-private state; and
// a deterministic merge on the run's goroutine (mergeLane, foldCounts)
// publishes what the lane buffered and runs each process's order-sensitive
// tail (finishOne). localSteps schedules that in one of two ways. A step
// worth splitting forks over Config.Workers lanes, each fusing Step with
// prepareOne on its own goroutine, and merges lane by lane. Every other
// step is the one-lane case: lane 0, on the run's goroutine, merged every
// inlineChunk processes — no goroutine, no WaitGroup, no clock read, and
// buffers no larger than that many processes' fan-out.
//
// Why the effects shard cleanly:
//
//   - Mailbox consumption, anchors, sent/lastSend, pendingCount: strictly
//     p-local, and each process belongs to exactly one lane.
//   - Payload interning and refcounts: each lane owns a private
//     payloadTable; calendar refs pack (lane, slot) into an int64, so a
//     delivery releases into whichever table interned it. No shared slots.
//   - Calendar insertion: lanes buffer surviving sends as run-length
//     encoded (deliverAt, count) runs over a flat message slice; the merge
//     bulk-appends them. A process's drafts share one delivery step
//     (t + d_p), so runs are long.
//   - Crash/omission flags, δ, d, links, the graph: read-only during local
//     steps (the adversary writes only in Observe, before deliveries).
//   - inflightTo[to] crosses lanes (any process may be a recipient), so
//     it is the one atomic in the phase.
//   - Stats: each lane accumulates counter deltas that foldCounts adds to
//     the run's. Every counter is a sum (order-free), and the two
//     high-water marks are monotone within a commit phase — in-flight only
//     grows during commits, so the end-of-phase value *is* the phase
//     maximum. Per-kind send counts never leave the lanes; stats() sums
//     them once.
//   - Trace events: each lane buffers the LocalStep/Send/Drop events of
//     its processes; the merge hands them to the sink process by process,
//     each followed by finishOne's Sleep/Wake, so the sink sees one stream
//     — from one goroutine — whatever the lane count.
//
// Lane boundaries never change any observable ordering: lanes are merged
// in lane order, which is ascending process order of the underlying due
// set, so sendLog order, calendar bucket contents, heap push/pop counts,
// the trace stream, and RNG consumption (none in the commit phase) are
// bit-identical for any partition. The workers, shards and traced-shards
// properties in internal/simtest pin this.

// maxShardLanes caps how many lanes a run ever allocates, whatever
// Config.Workers says. Packed refs reserve 29 bits for the lane index,
// but hundreds of lanes already exceed any plausible core count.
const maxShardLanes = 256

// inlineChunk is how many processes the inline lane prepares between
// merges. It bounds what lane 0 buffers to that many processes' sends and
// trace events — so a serial run allocates what it did when it wrote
// straight to the calendar (engine_alloc_mb holds a 1 % bound) — while
// still letting a dense step enter the calendar in bulk runs, which is
// what keeps the one-lane case as fast as the loop it replaced. Outcomes do
// not depend on it.
const inlineChunk = 64

// calRun is one run of lane messages sharing a delivery step.
type calRun struct {
	at Step
	n  int32
}

// laneCounts are the counter deltas a lane accumulates between merges.
type laneCounts struct {
	localSteps   int64
	sends        int64
	dropped      int64
	omitted      int64
	droppedLink  int64
	blockedSends int64
	pending      int64
	inflight     int64
}

// shardLane is one lane's private commit state: a payload table, the
// buffered calendar appends and trace events, and the counter deltas the
// merge folds. Lanes persist for the life of the run — calendar refs keep
// pointing into a lane's table long after the step that created them.
type shardLane struct {
	ptab payloadTable
	tag  int64 // lane index << 32: the table half of every ref minted here

	msgs []imessage // surviving sends, in (process, draft) order
	runs []calRun   // run-length encoding of msgs by delivery step

	sendLog []SendRecord
	tev     []TraceEvent // each process's events start with its LocalStep

	// kinds are the lane's per-kind send counts for the whole run, probed
	// linearly with an MRU cache (lastKind): protocols use a handful of
	// kinds and consecutive interns overwhelmingly share one.
	kinds    []KindCount
	lastKind int

	n laneCounts

	res  []int32 // per-process scratch: staging index → lane slot
	kres []int32 // staging index → lane kind index
	cnt  []int32 // staging index → surviving copies

	wall  time.Duration // accumulated wall time of forked phases
	crash *LanePanic    // set when a process panicked on this lane's goroutine

	_ [64]byte // keep adjacent lanes' hot counters off one cache line
}

// LanePanic is what the engine re-raises on the run's goroutine when a
// process panicked on a forked lane: the original panic value with the
// place it happened and the stack of the goroutine it happened on, which
// the re-raise would otherwise lose. (A panic on the inline lane needs no
// wrapping; it unwinds the run's own stack.)
type LanePanic struct {
	Value any
	Proc  ProcID
	Step  Step
	Stack []byte
}

func (lp *LanePanic) Error() string {
	return fmt.Sprintf("sim: process %d panicked in its local step at %d: %v", lp.Proc, lp.Step, lp.Value)
}

// kindIndex resolves payload kind k to its index in the lane's send
// counters, registering it on first sight. The string probe runs once per
// intern-memo miss (prepareOne's resolution loop); the per-send count is
// an integer increment against the returned index.
func (ln *shardLane) kindIndex(k string) int32 {
	if ln.lastKind < len(ln.kinds) && ln.kinds[ln.lastKind].Kind == k {
		return int32(ln.lastKind)
	}
	for i := range ln.kinds {
		if ln.kinds[i].Kind == k {
			ln.lastKind = i
			return int32(i)
		}
	}
	ln.kinds = append(ln.kinds, KindCount{Kind: k})
	ln.lastKind = len(ln.kinds) - 1
	return int32(ln.lastKind)
}

// pushMsg buffers one surviving send, extending the current run when the
// delivery step repeats.
func (ln *shardLane) pushMsg(at Step, m imessage) {
	ln.msgs = append(ln.msgs, m)
	if n := len(ln.runs); n > 0 && ln.runs[n-1].at == at {
		ln.runs[n-1].n++
	} else {
		ln.runs = append(ln.runs, calRun{at: at, n: 1})
	}
}

// ensureLanes grows the lane set to shards entries. Lanes are append-only:
// a ref minted by lane i must resolve for the rest of the run, so a later
// step with fewer due processes simply uses a prefix of the lanes.
func (e *engine) ensureLanes(shards int) {
	for len(e.lanes) < shards {
		e.lanes = append(e.lanes, shardLane{tag: int64(len(e.lanes)) << 32})
		e.lanes[len(e.lanes)-1].ptab.init(e.n / shards)
	}
}

// lanePart is lane s's share of a due set split over shards lanes: a
// contiguous range, empty for trailing lanes the ceiling division left
// nothing for.
func lanePart(due []ProcID, shards, s int) []ProcID {
	chunk := (len(due) + shards - 1) / shards
	lo := min(s*chunk, len(due))
	return due[lo:min(lo+chunk, len(due))]
}

// forkLanes runs the step+prepare phase of due at step t on shards
// goroutines, one lane each, and waits for them. A process that panics
// stops its lane; the first such lane's panic is re-raised here with the
// worker's stack attached.
func (e *engine) forkLanes(t Step, due []ProcID, shards int) {
	e.ensureLanes(shards)
	for s := 0; s < shards; s++ {
		part := lanePart(due, shards, s)
		if len(part) == 0 {
			break
		}
		e.wg.Add(1)
		go func(ln *shardLane, part []ProcID) {
			defer e.wg.Done()
			p := part[0]
			defer func() {
				if r := recover(); r != nil {
					ln.crash = &LanePanic{Value: r, Proc: p, Step: t, Stack: debug.Stack()}
				}
			}()
			start := time.Now()
			for _, p = range part {
				e.stepOne(t, p)
				e.prepareOne(t, p, ln)
			}
			ln.wall += time.Since(start)
		}(&e.lanes[s], part)
	}
	e.wg.Wait()
	for s := range e.lanes[:shards] {
		if lp := e.lanes[s].crash; lp != nil {
			panic(lp)
		}
	}
}

// prepareOne publishes every effect of p's local step that is p-local or
// lane-local: mailbox consumption, the send gate, interning, and the
// lane's buffered calendar appends, trace events and counter deltas. It is
// the only place the engine moves a message from an outbox toward the
// network. What touches shared state waits for the merge.
func (e *engine) prepareOne(t Step, p ProcID, ln *shardLane) {
	traced := e.cfg.Trace != nil
	if traced {
		ln.tev = append(ln.tev, TraceEvent{Kind: TraceLocalStep, Step: t, Proc: p, Other: -1})
	}
	e.pt.anchor[p] = t
	ln.n.pending += e.pt.pendingCount[p]
	e.pt.pendingCount[p] = 0
	e.pt.clearMail(p)
	ln.n.localSteps++

	ob := &e.outboxes[p]
	// Resolve the staged payloads of this local step into lane-table slots.
	// The table's identity memo collapses re-sends of the most recently
	// interned value to its existing slot, and carries the kind index with
	// it, so Kind() resolves only on memo misses. Staging order is
	// first-send order, so kinds register in the order sends first use them.
	res, kres, cnt := ln.res[:0], ln.kres[:0], ln.cnt[:0]
	for _, pl := range ob.staged {
		slot, fresh := ln.ptab.intern(pl)
		if fresh {
			kind := "?"
			if pl != nil {
				kind = pl.Kind()
			}
			ln.ptab.memoKind = ln.kindIndex(kind)
		}
		res = append(res, slot)
		kres = append(kres, ln.ptab.memoKind)
		cnt = append(cnt, 0)
	}
	ln.res, ln.kres, ln.cnt = res, kres, cnt
	omitted := e.pt.omitted(p)
	deliverAt := t + e.pt.delay[p]
	for _, d := range ob.drafts {
		to := ProcID(d.to)
		ln.n.sends++
		e.pt.sent[p]++
		e.pt.lastSend[p] = t
		ln.kinds[kres[d.pi]].Count++
		if e.adv != nil {
			// Only an adversary reads the send log; without one, appending
			// would grow an O(M) slice nobody drains.
			ln.sendLog = append(ln.sendLog, SendRecord{From: p, To: to, SentAt: t, DeliverAt: deliverAt})
		}
		if traced {
			ln.tev = append(ln.tev, TraceEvent{Kind: TraceSend, Step: t, Proc: p, Other: to, Payload: ob.staged[d.pi]})
		}
		// The send gate. Every send above counts in M(O); drop names why
		// the network never carries this one, in precedence order.
		drop, fault := "", FaultNone
		switch {
		case e.graph != nil && !e.graph.Live(p, to):
			// Off-graph send: the edge does not exist. Checked before the
			// crash/omission/link verdicts so a dead edge always yields
			// the "topology" drop, keeping the trace auditor's edge
			// accounting exact.
			ln.n.blockedSends++
			drop = "topology"
		case e.pt.crashed(to):
			ln.n.dropped++
			drop = "crashed"
		case omitted:
			ln.n.omitted++
			drop = "omit"
		case e.linkActive && e.linkBlocked(p, to):
			ln.n.droppedLink++
			drop = "link"
		case e.faults != nil:
			// Roll is a pure hash and sent[p] is p-local, so lanes reach
			// the same verdict for the same send without sharing a stream.
			if fault = e.faults.Roll(p, to, t, e.pt.sent[p]); fault == FaultDrop {
				ln.n.droppedLink++
				drop = "loss"
			}
		}
		if drop != "" {
			if traced {
				ln.tev = append(ln.tev, TraceEvent{Kind: TraceDrop, Step: t, Proc: to, Other: p, Payload: ob.staged[d.pi], Note: drop})
			}
			continue
		}
		ref := ln.tag | int64(res[d.pi])
		copies := int32(1)
		if fault == FaultCorrupt {
			ref |= refCorruptBit
		}
		ln.pushMsg(deliverAt, imessage{from: int32(p), to: d.to, ref: ref, sentAt: t})
		if fault == FaultDuplicate {
			// Second copy of a duplicated delivery: same step, flagged so
			// delivery counts it as the duplicate.
			ln.pushMsg(deliverAt, imessage{from: int32(p), to: d.to, ref: ref | refDupBit, sentAt: t})
			copies = 2
		}
		cnt[d.pi] += copies
		ln.n.inflight += int64(copies)
		// The one cross-lane write: any process can be the recipient.
		atomic.AddInt64(&e.pt.inflightTo[to], int64(copies))
	}
	// One batched refcount update per staged payload — not one per copy —
	// and an immediate sweep of slots whose every send was dropped before
	// reaching the calendar.
	for i, slot := range res {
		if cnt[i] > 0 {
			ln.ptab.addRefs(slot, cnt[i])
		} else {
			ln.ptab.sweep(slot)
		}
	}
	ob.clear()
}

// mergeLane publishes what a lane buffered for part — the processes it has
// prepared since its last merge, in ascending order — to the shared engine
// state: sends enter the calendar and the adversary's send log, then each
// process's trace events reach the sink, followed by its order-sensitive
// tail. Together with foldCounts this is the only code that touches shared
// state between the local steps and the next event, and it always runs on
// the run's goroutine, lane by lane in ascending process order, so its
// order fully determines the engine's observable behavior.
func (e *engine) mergeLane(t Step, ln *shardLane, part []ProcID) {
	base := 0
	for _, run := range ln.runs {
		if e.cal.addRun(run.at, ln.msgs[base:base+int(run.n)]) {
			e.sched.scheduleDelivery(run.at)
		}
		base += int(run.n)
	}
	ln.msgs = ln.msgs[:0]
	ln.runs = ln.runs[:0]
	if len(ln.sendLog) > 0 {
		e.sendLog = append(e.sendLog, ln.sendLog...)
		ln.sendLog = ln.sendLog[:0]
	}

	next := 0
	for _, p := range part {
		// p's LocalStep, then its sends and drops, up to the next process's
		// LocalStep. Nothing is buffered in an untraced run.
		for ; next < len(ln.tev) && (ln.tev[next].Proc == p || ln.tev[next].Kind != TraceLocalStep); next++ {
			e.cfg.Trace.Event(ln.tev[next])
		}
		e.finishOne(t, p)
	}
	ln.tev = ln.tev[:0]
}

// foldCounts adds the lane's counter deltas to the run's counters and
// zeroes them. Every counter is a sum, so once per step is as good as once
// per send.
func (e *engine) foldCounts(ln *shardLane) {
	n := &ln.n
	e.st.LocalSteps += n.localSteps
	e.eventCount += n.localSteps + n.sends
	e.msgTotal += n.sends
	e.st.DroppedCrashed += n.dropped
	e.st.OmittedSends += n.omitted
	e.st.DroppedLink += n.droppedLink
	e.st.BlockedSends += n.blockedSends
	e.totalPending -= n.pending
	e.inflight += n.inflight
	e.inflightToCorrect += n.inflight
	*n = laneCounts{}
	// In-flight only grows during a commit phase, so the folded value is
	// the maximum of everything folded so far.
	if e.inflight > e.st.MaxInFlight {
		e.st.MaxInFlight = e.inflight
	}
}

// shardWall summarizes the run's forked-phase timing for WallStats:
// per-lane commit wall, merge wall, and the max/mean imbalance ratio. A
// run that never forked reports nothing.
func (e *engine) shardWall() (commit []time.Duration, merge time.Duration, imbalance float64) {
	var sum, slowest time.Duration
	for i := range e.lanes {
		sum += e.lanes[i].wall
		slowest = max(slowest, e.lanes[i].wall)
	}
	if sum == 0 {
		return nil, 0, 0
	}
	commit = make([]time.Duration, len(e.lanes))
	for i := range e.lanes {
		commit[i] = e.lanes[i].wall
	}
	mean := float64(sum) / float64(len(commit))
	return commit, e.mergeWall, float64(slowest) / mean
}
