package gossip

import (
	"math"

	"github.com/ugf-sim/ugf/internal/sim"
)

// EARS is Epidemic Asynchronous Rumor Spreading (Georgiou et al. [14],
// Section V-A2(b) of the paper).
//
// Every process ρ maintains a gossip set G(ρ) and a who-knows-what set
// I(ρ) = {(ρ′, g) : ρ′ knows g}. At each local step it sends both sets to
// one uniformly random process; receivers merge them. A process completes
// when either
//
//   - every gossip it knows is, according to I(ρ), known by every process
//     (the paper's completion test, satisfiable only in crash-free runs), or
//   - it has gained no new information for ⌈N/(N−F)·ln N⌉ consecutive
//     local steps (the paper's inactivity window) AND at least N−F
//     processes are evidenced, via I(ρ), to know ρ's own gossip.
//
// The second clause is the F-aware reading of the paper's condition: the
// literal pair test ranges over all of Π and can never be met once a
// process has crashed, so a terminating implementation must weaken it.
// Requiring an N−F evidence quorum for the process's own gossip keeps the
// property that matters for the adversarial analysis — a process whose
// gossip has provably not spread (UGF's isolated ρ̂) cannot stop — while
// letting the rest of the system complete within the inactivity window.
// The window is evaluated on new *information* rather than raw arrivals,
// and completion is implemented as falling asleep (Definition IV.2): a
// later delivery that carries news wakes the process up again. DESIGN.md
// §2 records this substitution.
type EARS struct {
	// WindowScale multiplies the inactivity window; 0 means 1.
	WindowScale float64
}

// Name implements sim.Protocol.
func (EARS) Name() string { return "ears" }

// New implements sim.Protocol.
func (e EARS) New(envs []sim.Env) []sim.Process {
	ar := newArena(len(envs))
	return sim.BuildEach(envs, func(env sim.Env) sim.Process {
		return newEarsProc(env, ar, 1, e.WindowScale)
	})
}

// SEARS is Spamming EARS (Section V-A2(c)): identical state to EARS, but
// each local step shares the sets with ⌈c·N^ε·ln N⌉ distinct uniformly
// random processes instead of one, buying (near-)constant time complexity
// at the price of an unconditionally quadratic message complexity.
type SEARS struct {
	// C is the paper's constant c; 0 means 1.
	C float64
	// Epsilon is the paper's ε ∈ [0,1]; 0 means 0.5 (the experimental
	// setting of Section V-A2).
	Epsilon float64
	// WindowScale multiplies the inactivity window; 0 means 1.
	WindowScale float64
}

// Name implements sim.Protocol.
func (SEARS) Name() string { return "sears" }

// Fanout returns the per-step recipient count ⌈c·N^ε·ln N⌉ clamped to
// [1, N-1].
func (s SEARS) Fanout(n int) int {
	c := s.C
	if c <= 0 {
		c = 1
	}
	eps := s.Epsilon
	if eps <= 0 {
		eps = 0.5
	}
	m := int(math.Ceil(c * math.Pow(float64(n), eps) * math.Log(float64(n))))
	if m < 1 {
		m = 1
	}
	if m > n-1 {
		m = n - 1
	}
	return m
}

// New implements sim.Protocol.
func (s SEARS) New(envs []sim.Env) []sim.Process {
	ar := newArena(len(envs))
	fanout := s.Fanout(len(envs))
	return sim.BuildEach(envs, func(env sim.Env) sim.Process {
		return newEarsProc(env, ar, fanout, s.WindowScale)
	})
}

// earsProc is the shared EARS/SEARS state machine. See the package comment
// for the version-vector encoding of (G, I).
type earsProc struct {
	env    sim.Env
	ar     *arena
	fanout int
	window int

	known  bitset       // G(ρ)
	staged []sim.ProcID // gossips learned this step, published in Commit
	ver    []int32      // ver[b]: entries of b's log seen — encodes I(ρ)
	sumVer int64        // Σ ver, maintained by learn and merge
	cnt    []int32      // cnt[g]: #processes whose seen prefix contains g
	// merged[s] is the largest payload Sum merged from sender s: one
	// sender's snapshots only grow, so a payload whose Sum is no larger
	// repeats or predates one already merged and carries nothing.
	merged []int64
	// missing = |{(b,g) : g ∈ G(ρ), g not in ρ's seen prefix of b}|;
	// the paper's completion test is missing == 0.
	missing int64

	// Snapshot storage for outgoing payloads: append-only chunks that the
	// boxed *earsPayload values point into. A chunk is abandoned to the
	// garbage collector when full (in-flight messages keep it alive) and a
	// fresh one is carved, so snapshotting is two allocations per
	// snapChunk snapshots rather than two per snapshot. Per-process, not
	// in the shared arena: payload() runs in the parallel Step phase.
	snapBoxes []earsPayload
	snapInts  []int32
	plBox     sim.Payload // current boxed *earsPayload, reused until dirty
	verDirty  bool
	replyTo   []sim.ProcID // behind senders of the current step, repeats included
	replied   bitset       // scratch for deduplicating replyTo; empty between steps
	quiet     int          // local steps without new information
	// SEARS recipient sampling (fanout > 1): the drawn targets and the
	// identity table xrand.SampleIntsInto draws them over.
	targets, sampleTable []int
	// quorum is the completion threshold N−F: the process may not stop
	// before that many processes (itself included) are evidenced to know
	// its own gossip. cnt[ID] is exactly the evidence count.
	quorum int32
}

func newEarsProc(env sim.Env, ar *arena, fanout int, windowScale float64) *earsProc {
	p := &earsProc{
		env:      env,
		ar:       ar,
		fanout:   fanout,
		window:   inactivityWindow(env.N, env.F, windowScale),
		known:    newBitset(env.N),
		ver:      make([]int32, env.N),
		cnt:      make([]int32, env.N),
		merged:   make([]int64, env.N),
		replied:  newBitset(env.N),
		verDirty: true,
		quorum:   int32(env.N - env.F),
	}
	if fanout > 1 {
		ints := make([]int, fanout+env.N-1)
		p.targets, p.sampleTable = ints[:fanout], ints[fanout:]
		for i := range p.sampleTable {
			p.sampleTable[i] = i
		}
	}
	// Initial knowledge: my own gossip, and the pair (me, my gossip).
	p.learn(env.ID)
	return p
}

// learn adds g to G(ρ). The pair (ρ, g) enters I(ρ) immediately: learning
// a gossip extends ρ's own log, of which ρ has of course seen everything.
func (p *earsProc) learn(g sim.ProcID) {
	if !p.known.add(int(g)) {
		return
	}
	if g != p.env.ID {
		p.staged = append(p.staged, g)
	}
	p.missing += int64(p.env.N) - int64(p.cnt[g])
	p.see(p.env.ID, g)
	p.ver[p.env.ID]++
	p.sumVer++
	p.verDirty = true
}

// see records that entry g of b's log is now inside ρ's seen prefix — the
// pair (b, g) joined I(ρ).
func (p *earsProc) see(b, g sim.ProcID) {
	p.cnt[g]++
	if p.known.has(int(g)) {
		p.missing--
	}
}

// merge incorporates (G(s), I(s)) from a received payload. It reports
// whether anything new was learned, and whether the *sender* is evidently
// behind this process's knowledge (∃b: pl.Ver[b] < ver[b]) — the trigger
// for an anti-entropy reply.
//
// Most deliveries add nothing, and those are answered from sums alone
// (DESIGN.md §10 states the facts this rests on and where each is
// enforced): a snapshot whose Sum does not exceed one already merged from
// s is pointwise below it, and a receiver whose seen prefixes already
// cover every published log entry cannot be told more by anyone. After
// any merge ver ≥ pl.Ver pointwise, so the sender is behind on some entry
// exactly when the sums differ.
func (p *earsProc) merge(s sim.ProcID, pl *earsPayload) (news, senderBehind bool) {
	if pl.Sum > p.merged[s] {
		p.merged[s] = pl.Sum
		// Own staged entries are in ver[ID] but not yet in the arena.
		if p.sumVer-int64(len(p.staged)) < p.ar.total {
			news = p.mergeFull(s, pl)
		}
	}
	return news, p.sumVer > pl.Sum
}

// mergeFull is the merge proper, for a payload that may carry news; it
// reports whether it did.
func (p *earsProc) mergeFull(s sim.ProcID, pl *earsPayload) (news bool) {
	// G-merge: the sender's gossip set is its log prefix, of which the
	// first ver[s] entries are known already — whoever vouched for that
	// prefix had learned it, and sent its gossip set along.
	if seen := p.ver[s]; seen < pl.GLen {
		for _, g := range p.ar.logs[s][seen:pl.GLen] {
			if !p.known.has(int(g)) {
				p.learn(g)
				news = true
			}
		}
	}
	// I-merge: take the pointwise maximum of the version vectors,
	// accounting each newly covered log entry. A branch-free pass first
	// settles whether any entry is ahead at all: the sign bit of
	// ver[b]−v survives the OR exactly when some v > ver[b].
	ver := p.ver[:len(pl.Ver)]
	var ahead int32
	for b, v := range pl.Ver {
		ahead |= ver[b] - v
	}
	if ahead >= 0 {
		return news
	}
	for b, v := range pl.Ver {
		if v <= ver[b] {
			continue
		}
		for _, g := range p.ar.logs[b][ver[b]:v] {
			p.see(sim.ProcID(b), g)
		}
		p.sumVer += int64(v - ver[b])
		ver[b] = v
	}
	p.verDirty = true
	return true
}

// Step implements sim.Process.
func (p *earsProc) Step(now sim.Step, delivered []sim.Message, out *sim.Outbox) {
	news := false
	p.replyTo = p.replyTo[:0]
	for _, m := range delivered {
		n, behind := p.merge(m.From, m.Payload.(*earsPayload))
		if n {
			news = true
		}
		if behind {
			p.replyTo = append(p.replyTo, m.From)
		}
	}
	if news {
		p.quiet = 0
	} else {
		p.quiet++
	}
	if p.env.N == 1 {
		return
	}
	// Anti-entropy replies: while asleep, a sender whose version vector is
	// strictly behind ours gets our sets back, once (Definition IV.2
	// allows responding without resuming — like Push-Pull's pull
	// responses). Without this, the last process waiting for completion
	// evidence would starve: its already-complete peers would absorb its
	// messages without ever answering. Awake processes skip replies — they
	// are gossiping at full rate anyway, and replying too would inflate
	// the protocol's message complexity for no informational gain.
	if p.Asleep() {
		if len(p.replyTo) > 0 {
			pl := p.payload()
			// One reply per sender, in order of first arrival.
			for _, q := range p.replyTo {
				if p.replied.add(int(q)) {
					out.Send(q, pl)
				}
			}
			p.replied.reset()
		}
		return
	}
	pl := p.payload()
	if p.fanout == 1 {
		to := sim.ProcID(p.env.RNG.IntnExcept(p.env.N, int(p.env.ID)))
		out.Send(to, pl)
		return
	}
	p.env.RNG.SampleIntsInto(p.targets, p.sampleTable)
	for _, q := range p.targets {
		// Map [0, N-1) onto {0..N-1} \ {me}.
		if q >= int(p.env.ID) {
			q++
		}
		out.Send(sim.ProcID(q), pl)
	}
}

// snapChunk is how many snapshots one chunk of snapshot storage holds.
const snapChunk = 16

// payload snapshots the current (G, I) for sending. The boxed value is
// cached alongside the snapshot: ver[ID] only moves together with verDirty
// (learn bumps both), so while the snapshot is clean the payload contents
// are frozen and every send of a quiet stretch reuses one interface value —
// which the Outbox then dedups and the engine interns once. Snapshots are
// carved from the append-only chunks declared on earsProc; box pointers
// stay valid because a chunk is never reallocated, only replaced.
func (p *earsProc) payload() sim.Payload {
	if p.verDirty {
		n := p.env.N
		if len(p.snapInts)+n > cap(p.snapInts) {
			p.snapInts = make([]int32, 0, snapChunk*n)
		}
		start := len(p.snapInts)
		p.snapInts = append(p.snapInts, p.ver...)
		snap := p.snapInts[start : start+n : start+n]
		if len(p.snapBoxes) == cap(p.snapBoxes) {
			p.snapBoxes = make([]earsPayload, 0, snapChunk)
		}
		p.snapBoxes = append(p.snapBoxes, newEarsPayload(p.ver[p.env.ID], snap))
		p.plBox = &p.snapBoxes[len(p.snapBoxes)-1]
		p.verDirty = false
	}
	return p.plBox
}

// Commit implements sim.Committer.
func (p *earsProc) Commit(now sim.Step) {
	p.ar.publish(p.env.ID, p.staged)
	p.staged = p.staged[:0]
}

// Asleep implements sim.Process: knowledge-complete (the paper's literal
// test, reachable only without crashes), or quiet for a full inactivity
// window with an N−F evidence quorum on the process's own gossip.
func (p *earsProc) Asleep() bool {
	if p.missing == 0 {
		return true
	}
	return p.quiet >= p.window && p.cnt[p.env.ID] >= p.quorum
}

// Knows implements sim.Process.
func (p *earsProc) Knows(g sim.ProcID) bool { return p.known.has(int(g)) }
