package sim

import "github.com/ugf-sim/ugf/internal/xrand"

// Env is everything a protocol instance may depend on: its identity, the
// system constants of Section II, and a private deterministic random
// stream. Protocols must draw randomness exclusively from Env.RNG — that is
// what makes stepping on several shard lanes deterministic.
type Env struct {
	ID  ProcID
	N   int // total number of processes
	F   int // maximum number of crashes the system is dimensioned for
	RNG *xrand.RNG
}

// Protocol constructs the process instances of one run. Implementations
// are stateless factories: one Protocol value may be shared by many
// concurrent runs, and all mutable state must live in the values New
// returns.
//
// New builds all N processes at once so that a protocol can set up state
// shared by the whole run — for example the append-only knowledge logs
// that EARS processes expose to each other. Such shared state must follow
// the engine's phase discipline: reads may happen during the (possibly
// parallel) Step phase, writes only inside Commit (see Committer).
type Protocol interface {
	// Name returns a short stable identifier ("push-pull", "ears", …).
	Name() string
	// New creates the state machines of one run; envs[i] describes
	// process i. The returned slice must have len(envs) entries.
	New(envs []Env) []Process
}

// BuildEach adapts a purely per-process constructor to Protocol.New's
// batch form, for protocols without shared run state.
func BuildEach(envs []Env, build func(Env) Process) []Process {
	procs := make([]Process, len(envs))
	for i, env := range envs {
		procs[i] = build(env)
	}
	return procs
}

// Committer is an optional Process extension for protocols with shared
// run state. When a process implements it, the engine calls Commit once
// after every local step of that process, serially and in ascending
// process order, once all Step calls of the global step have returned.
// Publication of anything other processes may read (log appends, shared
// indexes) must happen here, never inside Step — that is what keeps forked
// shard lanes race-free and bit-identical to the inline lane.
type Committer interface {
	Commit(now Step)
}

// Forgetter is an optional Process extension for protocols whose
// processes can lose their volatile state. When the adversary recovers a
// crashed process with amnesia (Control.Recover with amnesia true) the
// engine calls Forget once, before the process takes any further local
// step: the process must reset to its initial knowledge — its own gossip
// only — as if freshly constructed, keeping its Env (identity, RNG
// position) as is. Processes that do not implement Forgetter recover with
// their pre-crash state retained (stable storage).
type Forgetter interface {
	Forget()
}

// Process is one process's protocol state machine, driven by the engine.
//
// Implementations are confined: during Step they may touch only their own
// state, the delivered messages (treating payloads as immutable), and their
// Env.RNG. They must not retain the Outbox past the call.
type Process interface {
	// Step runs one local step at global step now. delivered holds every
	// message that arrived since the previous local step, in arrival order
	// (possibly empty, for the process's very first steps). The process
	// emits sends through out.
	Step(now Step, delivered []Message, out *Outbox)

	// Asleep reports whether the process has fallen asleep in the sense of
	// Definition IV.2: it will not send anything at future local steps
	// unless a delivered message changes its state. The engine uses it for
	// quiescence detection and to skip the local steps of sleeping
	// processes with an empty mailbox (which are no-ops by definition).
	Asleep() bool

	// Knows reports whether the process currently holds the gossip
	// originated by process g. It backs the rumor-gathering check
	// (Definition II.1) performed at the end of a run.
	Knows(g ProcID) bool
}

// Outbox collects the sends of one local step. The engine stamps send and
// delivery times and routes the messages; processes only choose recipients
// and payloads.
//
// Internally the Outbox separates *which* payloads were sent from *where*:
// drafts hold (recipient, staging index) pairs, and the staging table holds
// each distinct payload value once. A fan-out that hands Send the same
// interface value for every recipient — the idiom all protocols here use —
// stages one table entry no matter how many drafts reference it, which is
// what previously re-wrapped the shared payload per destination and now
// lets the engine intern it into one run-table slot. Dedup is by interface
// identity (samePayload, intern.go) against the most recent staged payload;
// fan-out loops send runs of the same value, so one memo catches them.
type Outbox struct {
	from   ProcID
	n      int
	drafts []odraft
	staged []Payload // distinct payloads of this local step, in first-send order

	lastStaged Payload // memo: most recently staged payload …
	lastPI     int32   // … and its staging index, or -1

	// stagedArr and draftArr initially back staged and drafts: nearly
	// every local step stages a handful of distinct payloads and many
	// processes never send more than a few messages per step, so the
	// inline arrays make light outboxes allocation-free for the life of a
	// run. A step that outgrows one spills that slice onto the heap once;
	// clear keeps whatever backing a slice has, so a spill never repeats.
	// (After a spill stagedArr may pin up to 4 stale payload boxes —
	// tiny, run-scoped values, deliberately not scrubbed on the hot
	// path.)
	stagedArr [4]Payload
	draftArr  [4]odraft
}

// odraft is one queued send: the recipient and the staging index of its
// payload. Both fit in 4 bytes (newEngine guards N < 2³¹).
type odraft struct {
	to, pi int32
}

// NewOutbox returns an Outbox collecting sends from the given process in a
// system of n processes. The engine manages its own outboxes; this
// constructor exists for protocol unit tests, custom drivers, and the
// reference engine in sim/oracle.
func NewOutbox(from ProcID, n int) Outbox {
	var o Outbox
	o.reset(from, n)
	return o
}

// Drain returns the queued sends as (to, payload) messages, in Send order,
// and empties the outbox. Like NewOutbox it exists for tests and custom
// drivers; the production engine reads the drafts and staging table
// directly (prepareOne) and never materializes this slice.
func (o *Outbox) Drain() []Message {
	msgs := make([]Message, len(o.drafts))
	for i, d := range o.drafts {
		msgs[i] = Message{From: o.from, To: ProcID(d.to), Payload: o.staged[d.pi]}
	}
	o.clear()
	return msgs
}

func (o *Outbox) reset(from ProcID, n int) {
	o.from = from
	o.n = n
	o.clear()
}

// clear empties the drafts and the staging table, nil-ing staged entries so
// the retained storage does not pin payloads past the local step.
func (o *Outbox) clear() {
	o.drafts = o.drafts[:0]
	for i := range o.staged {
		o.staged[i] = nil
	}
	o.staged = o.staged[:0]
	o.lastStaged = nil
	o.lastPI = -1
}

// Send queues one message to process to. It panics if to is out of range
// or the process addresses itself — both are protocol bugs, not runtime
// conditions.
func (o *Outbox) Send(to ProcID, payload Payload) {
	if to < 0 || int(to) >= o.n {
		panic("sim: send to process out of range")
	}
	if to == o.from {
		panic("sim: process sent a message to itself")
	}
	pi := o.lastPI
	if pi < 0 || !samePayload(payload, o.lastStaged) {
		if o.staged == nil {
			// Bind here rather than in reset: NewOutbox returns by value,
			// and binding before that copy would alias the wrong array.
			o.staged = o.stagedArr[:0]
		}
		o.staged = append(o.staged, payload)
		pi = int32(len(o.staged) - 1)
		o.lastStaged = payload
		o.lastPI = pi
	}
	if o.drafts == nil {
		o.drafts = o.draftArr[:0]
	}
	o.drafts = append(o.drafts, odraft{to: int32(to), pi: pi})
}

// Len reports how many messages have been queued this local step.
func (o *Outbox) Len() int { return len(o.drafts) }

// distinct reports how many payload values are staged — the slot count the
// engine will intern for this local step. Exposed for the fan-out dedup
// regression tests.
func (o *Outbox) distinct() int { return len(o.staged) }
