package live

import (
	"fmt"
	"sort"
	"sync"

	"github.com/ugf-sim/ugf/internal/live/wire"
	"github.com/ugf-sim/ugf/internal/sim"
)

// stepReq is the coordinator's begin-of-step message to one node: the
// global step to execute and an immutable snapshot of the crashed set as
// of that step, shared by every participant so all senders apply the same
// crashed-receiver verdicts. zombie marks a crashed node that still has
// arrivals due — it drains and drops them without stepping, the live
// equivalent of the engine's crashed-delivery drop.
type stepReq struct {
	t       sim.Step
	crashed []bool
	zombie  bool
	// drain marks a correct node whose due arrivals are all corrupt: it
	// discards them without a local step, mirroring the engine, where a
	// corrupt message is dropped in the deliver phase and so never wakes
	// or steps a sleeping receiver.
	drain bool
}

// inMsg is one staged arrival: the decoded envelope, or — when the
// payload checksum failed — its intact header with corrupt set, the
// physical form of the fault model's "corruption is detected loss".
type inMsg struct {
	env     wire.Envelope
	corrupt bool
}

// fwRec is the node's report of one physically forwarded frame; the
// coordinator's arrival bookkeeping (heap, in-flight counters) is built
// from these.
type fwRec struct {
	to       sim.ProcID
	arriveAt sim.Step
	corrupt  bool
}

// stepReport carries everything the coordinator needs to account one
// node's step. The node writes it before signalling done; the coordinator
// reads it after — the done channel is the happens-before edge.
type stepReport struct {
	frames       int   // frames handed to the transport (ack barrier expects these)
	sends        int64 // drafts counted in M(O)
	sent         bool  // lastSend advanced to this step
	delivered    int64 // messages consumed by Step, duplicate copies included
	dupDelivered int64
	corruptDrops int64 // arrivals discarded by the payload checksum
	crashDrops   int64 // arrivals drained by a zombie
	dropsCrashed int64 // sends to receivers crashed at send time
	dropsOmit    int64 // sends suppressed by the omission interposer
	dropsLoss    int64 // sends dropped by the fault plan's loss roll
	err          error
}

// node is one live process: goroutine-driven protocol state machine plus
// its sending-side interposer. All fields below mu are owned by the node
// goroutine during a step and readable by the coordinator between steps.
type node struct {
	id    sim.ProcID
	n     int
	proc  sim.Process
	out   sim.Outbox
	itp   *interposer
	tr    Transport
	trace bool

	stepCh chan stepReq

	// staged is the receiver-side inbox: the reader goroutine appends
	// decoded arrivals as frames land, under mu — the only lock in the
	// data path, and never held across channel operations.
	mu     sync.Mutex
	staged []inMsg

	// Node-goroutine state, coordinator-readable between steps.
	seq      int64    // post-increment send counter (the engine's pt.sent[p])
	lastSend sim.Step // last step this node sent at
	kinds    []sim.KindCount
	lastKind int
	zombie   bool // coordinator's note of this step's role; nodes never read it

	fw     []fwRec
	report stepReport
	arrEvs []sim.TraceEvent // arrival-phase events, sorted by the global arrival key
	arrKey []arrKey         // sort keys parallel to arrEvs
	prcEvs []sim.TraceEvent // local-step/send-phase events, already in order

	due       []inMsg
	delivered []sim.Message
}

// arrKey orders arrival-phase trace events exactly as the engine's
// calendar bucket does: by send step, then sender, then the sender's
// sequence number, duplicates after their original.
type arrKey struct {
	sentAt sim.Step
	from   sim.ProcID
	seq    int64
	dup    bool
}

func (a arrKey) less(b arrKey) bool {
	if a.sentAt != b.sentAt {
		return a.sentAt < b.sentAt
	}
	if a.from != b.from {
		return a.from < b.from
	}
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	return !a.dup && b.dup
}

// stage appends one decoded arrival; called by the runtime's reader
// goroutine for this node.
func (nd *node) stage(m inMsg) {
	nd.mu.Lock()
	nd.staged = append(nd.staged, m)
	nd.mu.Unlock()
}

// loop is the node goroutine: execute step requests until the step
// channel closes.
func (nd *node) loop(doneCh chan<- *node, stop <-chan struct{}) {
	for {
		select {
		case req, ok := <-nd.stepCh:
			if !ok {
				return
			}
			nd.runStep(req)
			select {
			case doneCh <- nd:
			case <-stop:
				return
			}
		case <-stop:
			return
		}
	}
}

// takeDue moves every staged arrival due at or before t into nd.due,
// sorted into the engine's delivery order.
func (nd *node) takeDue(t sim.Step) {
	nd.due = nd.due[:0]
	nd.mu.Lock()
	kept := nd.staged[:0]
	for _, m := range nd.staged {
		if m.env.ArriveAt <= t {
			nd.due = append(nd.due, m)
		} else {
			kept = append(kept, m)
		}
	}
	nd.staged = kept
	nd.mu.Unlock()
	sort.SliceStable(nd.due, func(i, j int) bool {
		a, b := &nd.due[i].env, &nd.due[j].env
		ka := arrKey{a.SentAt, a.From, a.Seq, a.Dup}
		kb := arrKey{b.SentAt, b.From, b.Seq, b.Dup}
		return ka.less(kb)
	})
}

// runStep executes one global step for this node: consume due arrivals,
// run the protocol's local step, and push every surviving send through
// the interposer onto the transport. Zombies only drain.
func (nd *node) runStep(req stepReq) {
	defer func() {
		if r := recover(); r != nil {
			nd.report.err = fmt.Errorf("live: node %d panicked at step %d: %v", nd.id, req.t, r)
		}
	}()
	nd.report = stepReport{}
	nd.fw = nd.fw[:0]
	nd.arrEvs = nd.arrEvs[:0]
	nd.arrKey = nd.arrKey[:0]
	nd.prcEvs = nd.prcEvs[:0]
	nd.delivered = nd.delivered[:0]
	t := req.t

	nd.takeDue(t)
	if req.zombie {
		// Crashed receiver: the engine's deliver loop drops these with a
		// "crashed" note and no in-flight adjustment (zeroed at crash).
		for _, m := range nd.due {
			nd.report.crashDrops++
			if nd.trace {
				note := "crashed"
				if m.env.Dup {
					note = "crashed dup"
				}
				nd.pushArr(m, sim.TraceEvent{Kind: sim.TraceDrop, Step: t,
					Proc: nd.id, Other: m.env.From, Payload: m.env.Payload, Note: note})
			}
		}
		return
	}

	if req.drain {
		for _, m := range nd.due {
			if !m.corrupt {
				nd.report.err = fmt.Errorf("live: node %d asked to drain a non-corrupt arrival at step %d", nd.id, t)
				return
			}
			nd.dropCorrupt(t, m)
		}
		return
	}

	for _, m := range nd.due {
		if m.corrupt {
			nd.dropCorrupt(t, m)
			continue
		}
		nd.report.delivered++
		if m.env.Dup {
			nd.report.dupDelivered++
		}
		if nd.trace {
			note := ""
			if m.env.Dup {
				note = "dup"
			}
			nd.pushArr(m, sim.TraceEvent{Kind: sim.TraceArrive, Step: t,
				Proc: nd.id, Other: m.env.From, Payload: m.env.Payload, Note: note})
		}
		nd.delivered = append(nd.delivered, sim.Message{
			From: m.env.From, To: nd.id, SentAt: m.env.SentAt, DeliverAt: t,
			Payload: m.env.Payload,
		})
	}

	if nd.trace {
		nd.prcEvs = append(nd.prcEvs, sim.TraceEvent{Kind: sim.TraceLocalStep, Step: t, Proc: nd.id, Other: -1})
	}
	nd.proc.Step(t, nd.delivered, &nd.out)
	msgs := nd.out.Drain()
	omitted := nd.itp.omitted(nd.id, t)
	for _, msg := range msgs {
		nd.seq++
		nd.lastSend = t
		nd.report.sends++
		nd.report.sent = true
		nd.countKind(msg.Payload)
		if nd.trace {
			nd.prcEvs = append(nd.prcEvs, sim.TraceEvent{Kind: sim.TraceSend, Step: t,
				Proc: nd.id, Other: msg.To, Payload: msg.Payload})
		}
		switch {
		case req.crashed != nil && req.crashed[msg.To]:
			nd.report.dropsCrashed++
			nd.dropSend(t, msg, "crashed")
			continue
		case omitted:
			nd.report.dropsOmit++
			nd.dropSend(t, msg, "omit")
			continue
		}
		fault := nd.itp.linkFault(nd.id, msg.To, t, nd.seq)
		if fault == sim.FaultDrop {
			nd.report.dropsLoss++
			nd.dropSend(t, msg, "loss")
			continue
		}
		if msg.Payload == nil {
			// The engine tolerates nil payloads (kind "?"); the wire cannot
			// carry one. No registry protocol sends them.
			nd.report.err = fmt.Errorf("live: node %d sent a nil payload at step %d", nd.id, t)
			return
		}
		arriveAt := t + 1 + nd.itp.extraDelay(nd.id, msg.To, t, nd.seq)
		env := wire.Envelope{
			From: nd.id, To: msg.To, SentAt: t, ArriveAt: arriveAt,
			Seq: nd.seq, Kind: msg.Payload.Kind(), Payload: msg.Payload,
		}
		if err := nd.forward(&env, fault == sim.FaultCorrupt); err != nil {
			nd.report.err = err
			return
		}
		if fault == sim.FaultDuplicate {
			env.Dup = true
			if err := nd.forward(&env, false); err != nil {
				nd.report.err = err
				return
			}
		}
	}
}

// dropCorrupt discards one arrival whose payload checksum failed:
// detected loss, never a forged payload — the protocol does not see it.
func (nd *node) dropCorrupt(t sim.Step, m inMsg) {
	nd.report.corruptDrops++
	if nd.trace {
		nd.pushArr(m, sim.TraceEvent{Kind: sim.TraceDrop, Step: t,
			Proc: nd.id, Other: m.env.From, Note: "corrupt"})
	}
}

// forward encodes, optionally corrupts, frames and transmits one
// envelope, recording it for the coordinator's bookkeeping.
func (nd *node) forward(env *wire.Envelope, corrupt bool) error {
	body, err := env.Encode()
	if err != nil {
		return fmt.Errorf("live: node %d encode to %d: %w", nd.id, env.To, err)
	}
	if corrupt {
		// Flip a real payload bit on the wire; the receiver's checksum
		// detects it and discards the message at delivery.
		if err := wire.CorruptBody(body, corruptBit(env.From, env.To, env.SentAt, env.Seq)); err != nil {
			return fmt.Errorf("live: node %d corrupt to %d: %w", nd.id, env.To, err)
		}
	}
	if err := nd.tr.Send(int(nd.id), int(env.To), wire.AppendFrame(nil, body)); err != nil {
		return err
	}
	nd.fw = append(nd.fw, fwRec{to: env.To, arriveAt: env.ArriveAt, corrupt: corrupt})
	nd.report.frames++
	return nil
}

// dropSend emits the send-time drop event (engine.traceSendDrop shape:
// Proc is the receiver, Other the sender).
func (nd *node) dropSend(t sim.Step, msg sim.Message, note string) {
	if nd.trace {
		nd.prcEvs = append(nd.prcEvs, sim.TraceEvent{Kind: sim.TraceDrop, Step: t,
			Proc: msg.To, Other: nd.id, Payload: msg.Payload, Note: note})
	}
}

// countKind bumps the per-payload-kind send counter, MRU-probed like the
// engine's shardLane.kindIndex.
func (nd *node) countKind(pl sim.Payload) {
	k := "?"
	if pl != nil {
		k = pl.Kind()
	}
	if nd.lastKind < len(nd.kinds) && nd.kinds[nd.lastKind].Kind == k {
		nd.kinds[nd.lastKind].Count++
		return
	}
	for i := range nd.kinds {
		if nd.kinds[i].Kind == k {
			nd.kinds[i].Count++
			nd.lastKind = i
			return
		}
	}
	nd.kinds = append(nd.kinds, sim.KindCount{Kind: k, Count: 1})
	nd.lastKind = len(nd.kinds) - 1
}

// pushArr records one arrival-phase event with its global ordering key.
func (nd *node) pushArr(m inMsg, ev sim.TraceEvent) {
	nd.arrEvs = append(nd.arrEvs, ev)
	nd.arrKey = append(nd.arrKey, arrKey{m.env.SentAt, m.env.From, m.env.Seq, m.env.Dup})
}
