package sim

// The production engine's System implementation: the adversary-facing
// surface of engine state, plus the write operations of Definition II.5.
// The read accessors are direct field reads; the write operations carry
// the engine-specific bookkeeping (scheduler reindexing, intervention
// counters, trace events) that the reference engine in sim/oracle
// implements its own way.

// NumProcs implements System.
func (e *engine) NumProcs() int { return e.n }

// CrashBudget implements System.
func (e *engine) CrashBudget() int { return e.cfg.F }

// Now implements System.
func (e *engine) Now() Step { return e.now }

// Crashed implements System.
func (e *engine) Crashed(p ProcID) bool { return e.pt.crashed(p) }

// Asleep implements System.
func (e *engine) Asleep(p ProcID) bool { return !e.pt.crashed(p) && !e.pt.awake(p) }

// SentCount implements System.
func (e *engine) SentCount(p ProcID) int64 { return e.pt.sent[p] }

// Delta implements System.
func (e *engine) Delta(p ProcID) Step { return e.pt.delta[p] }

// Delay implements System.
func (e *engine) Delay(p ProcID) Step { return e.pt.delay[p] }

// CrashCount implements System.
func (e *engine) CrashCount() int { return e.crashCount }

// CrashesEver implements System.
func (e *engine) CrashesEver() int { return e.crashesEver }

// Crash implements System: it enforces the range, already-crashed and
// budget guards, then fails the process immediately. The budget is
// enforced against cumulative crash events, so recoveries do not refund
// it.
func (e *engine) Crash(p ProcID) bool {
	if p < 0 || int(p) >= e.n || e.pt.crashed(p) || e.crashesEver >= e.cfg.F {
		return false
	}
	e.crashProcess(p)
	return true
}

// Recover implements System: it revives a crashed process at the current
// step. The process re-anchors its local-step schedule at now (first
// boundary now + δ_p); whether it resumes awake is the protocol's call —
// a process that had fallen asleep before crashing stays dormant until
// mail arrives. With amnesia, a Forgetter protocol resets the process to
// its initial knowledge first.
func (e *engine) Recover(p ProcID, amnesia bool) bool {
	if p < 0 || int(p) >= e.n || !e.pt.crashed(p) {
		return false
	}
	e.pt.clearCrashed(p)
	e.crashCount--
	e.everRecovered = true
	e.st.Recoveries++
	e.pt.anchor[p] = e.now
	note := "retain"
	if amnesia {
		note = "amnesia"
		if f, ok := e.procs[p].(Forgetter); ok {
			f.Forget()
		}
	}
	if !e.procs[p].Asleep() {
		e.pt.setAwake(p, true)
		e.awakeCorrect++
		e.sched.scheduleProc(p, e.now+e.pt.delta[p])
	}
	e.trace(TraceEvent{Kind: TraceRecover, Step: e.now, Proc: p, Other: -1, Note: note})
	return true
}

// SetDelta implements System: rewrite δ_p and re-anchor p's local-step
// schedule at the current step.
func (e *engine) SetDelta(p ProcID, v Step) {
	if p < 0 || int(p) >= e.n {
		panic("sim: SetDelta on process out of range")
	}
	if v < 1 {
		panic("sim: SetDelta with non-positive step time")
	}
	e.st.DeltaRewrites++
	e.pt.delta[p] = v
	e.pt.anchor[p] = e.now
	if e.sched.scheduledAt(p) != noSchedule {
		// Schedulable process: its next boundary moved to now + v.
		// Crashed or sleeping processes stay out of the index; a later
		// wake-up arrival reads the rewritten anchor/δ.
		e.sched.scheduleProc(p, e.now+v)
	}
	e.trace(TraceEvent{Kind: TraceAdversary, Step: e.now, Proc: p, Note: "delta"})
}

// SetDelay implements System: only messages sent after the rewrite are
// affected; in-flight messages keep the delivery time stamped at send.
func (e *engine) SetDelay(p ProcID, v Step) {
	if p < 0 || int(p) >= e.n {
		panic("sim: SetDelay on process out of range")
	}
	if v < 1 {
		panic("sim: SetDelay with non-positive delivery time")
	}
	e.st.DelayRewrites++
	e.pt.delay[p] = v
	e.trace(TraceEvent{Kind: TraceAdversary, Step: e.now, Proc: p, Note: "delay"})
}

// SetOmitFrom implements System.
func (e *engine) SetOmitFrom(p ProcID, omit bool) {
	if p < 0 || int(p) >= e.n {
		panic("sim: SetOmitFrom on process out of range")
	}
	e.st.OmitRewrites++
	e.pt.setOmitted(p, omit)
	e.trace(TraceEvent{Kind: TraceAdversary, Step: e.now, Proc: p, Note: "omit"})
}

// SetClass implements System: partition-class assignment. The class
// array allocates lazily on first use, and the linkActive gate stays set
// for the rest of the run — healing a partition restores traffic, not
// the fault-free fast path.
func (e *engine) SetClass(p ProcID, c int) {
	if p < 0 || int(p) >= e.n {
		panic("sim: SetClass on process out of range")
	}
	if c < 0 {
		panic("sim: SetClass with negative class")
	}
	if e.class == nil {
		e.class = make([]int32, e.n)
	}
	e.st.LinkRewrites++
	e.class[p] = int32(c)
	e.linkActive = true
	e.trace(TraceEvent{Kind: TraceAdversary, Step: e.now, Proc: p, Note: "class"})
}

// DropLink implements System.
func (e *engine) DropLink(from, to ProcID) {
	if from < 0 || int(from) >= e.n || to < 0 || int(to) >= e.n {
		panic("sim: DropLink on process out of range")
	}
	if e.linkDown == nil {
		e.linkDown = make(map[int64]struct{})
	}
	e.st.LinkRewrites++
	e.linkDown[linkKey(from, to)] = struct{}{}
	e.linkActive = true
	e.trace(TraceEvent{Kind: TraceAdversary, Step: e.now, Proc: from, Note: "droplink"})
}

// EdgeLive implements System: whether the undirected communication-graph
// edge (a, b) is live. With no topology and no edge edits every pair is
// connected.
func (e *engine) EdgeLive(a, b ProcID) bool {
	if a < 0 || int(a) >= e.n || b < 0 || int(b) >= e.n {
		panic("sim: EdgeLive on process out of range")
	}
	return e.graph == nil || e.graph.Live(a, b)
}

// AddEdge implements System: insert the undirected edge (a, b),
// reporting whether the graph changed. On a change, the rewrite counts
// in Stats.TopologyRewrites and traces as an adversary event carrying
// both endpoints.
func (e *engine) AddEdge(a, b ProcID) bool {
	if a < 0 || int(a) >= e.n || b < 0 || int(b) >= e.n {
		panic("sim: AddEdge on process out of range")
	}
	e.ensureGraph()
	if !e.graph.Add(a, b) {
		return false
	}
	e.st.TopologyRewrites++
	e.trace(TraceEvent{Kind: TraceAdversary, Step: e.now, Proc: a, Other: b, Note: "addedge"})
	return true
}

// RemoveEdge implements System: delete the undirected edge (a, b),
// mirroring AddEdge. Only future sends are affected; messages already in
// flight keep their stamped delivery.
func (e *engine) RemoveEdge(a, b ProcID) bool {
	if a < 0 || int(a) >= e.n || b < 0 || int(b) >= e.n {
		panic("sim: RemoveEdge on process out of range")
	}
	e.ensureGraph()
	if !e.graph.Remove(a, b) {
		return false
	}
	e.st.TopologyRewrites++
	e.trace(TraceEvent{Kind: TraceAdversary, Step: e.now, Proc: a, Other: b, Note: "removeedge"})
	return true
}

// ensureGraph materializes the complete-base delta graph on the first
// edge edit of a run without a Config.Topology, so edge-free complete
// runs keep the nil fast path in the send loop.
func (e *engine) ensureGraph() {
	if e.graph == nil {
		e.graph = NewGraph(nil, e.n)
	}
}

// HealLink implements System.
func (e *engine) HealLink(from, to ProcID) {
	if from < 0 || int(from) >= e.n || to < 0 || int(to) >= e.n {
		panic("sim: HealLink on process out of range")
	}
	e.st.LinkRewrites++
	delete(e.linkDown, linkKey(from, to))
	e.trace(TraceEvent{Kind: TraceAdversary, Step: e.now, Proc: from, Note: "heallink"})
}
