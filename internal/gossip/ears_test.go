package gossip

import (
	"slices"
	"testing"

	"github.com/ugf-sim/ugf/internal/sim"
	"github.com/ugf-sim/ugf/internal/xrand"
)

// earsHarness drives EARS processes directly (without the engine) with a
// synchronous round-based scheduler, so the whitebox invariants of the
// version-vector encoding can be checked after every round.
type earsHarness struct {
	procs   []*earsProc
	mailbox [][]sim.Message
	now     sim.Step
}

func newEarsHarness(proto sim.Protocol, n, f int, seed uint64) *earsHarness {
	envs := makeEnvs(n, f, seed)
	built := proto.New(envs)
	h := &earsHarness{mailbox: make([][]sim.Message, n)}
	for _, p := range built {
		h.procs = append(h.procs, p.(*earsProc))
	}
	return h
}

// round delivers all queued mail and runs one local step of every process.
func (h *earsHarness) round() {
	h.now++
	var outs []sim.Outbox
	for i, p := range h.procs {
		out := sim.NewOutbox(sim.ProcID(i), len(h.procs))
		p.Step(h.now, h.mailbox[i], &out)
		h.mailbox[i] = nil
		outs = append(outs, out)
	}
	for i, p := range h.procs {
		p.Commit(h.now)
		for _, m := range outs[i].Drain() {
			m.From = sim.ProcID(i)
			h.mailbox[m.To] = append(h.mailbox[m.To], m)
		}
	}
}

// checkInvariants cross-checks every process's incremental state against a
// brute-force recomputation from the arena logs.
func (h *earsHarness) checkInvariants(t *testing.T) {
	t.Helper()
	n := len(h.procs)
	checkArenaTotal(t, h.procs[0].ar)
	for pi, p := range h.procs {
		ar := p.ar
		checkMergeState(t, pi, p, h.procs)
		// ver bounds: a seen prefix can never exceed the published log
		// plus own staged entries.
		for b := 0; b < n; b++ {
			limit := int32(len(ar.logs[b]))
			if b == pi {
				limit += int32(len(p.staged))
			}
			if p.ver[b] < 0 || p.ver[b] > limit {
				t.Fatalf("proc %d: ver[%d] = %d outside [0, %d]", pi, b, p.ver[b], limit)
			}
		}
		// known must equal the contents of own log (+ staged).
		ownSeen := map[sim.ProcID]bool{}
		for _, g := range ar.logs[pi] {
			ownSeen[g] = true
		}
		for _, g := range p.staged {
			ownSeen[g] = true
		}
		for g := 0; g < n; g++ {
			if p.known.has(g) != ownSeen[sim.ProcID(g)] {
				t.Fatalf("proc %d: known(%d) = %v but log/staged says %v",
					pi, g, p.known.has(g), ownSeen[sim.ProcID(g)])
			}
		}
		// cnt[g] must equal the number of processes b whose seen prefix
		// contains g; missing must match its definition.
		var missing int64
		cnt := make([]int32, n)
		for b := 0; b < n; b++ {
			prefix := ar.logs[b]
			if b == pi {
				prefix = append(append([]sim.ProcID{}, prefix...), p.staged...)
			}
			for _, g := range prefix[:p.ver[b]] {
				cnt[g]++
			}
		}
		for g := 0; g < n; g++ {
			if cnt[g] != p.cnt[g] {
				t.Fatalf("proc %d: cnt[%d] = %d, brute force %d", pi, g, p.cnt[g], cnt[g])
			}
			if p.known.has(g) {
				missing += int64(n) - int64(cnt[g])
			}
		}
		if missing != p.missing {
			t.Fatalf("proc %d: missing = %d, brute force %d", pi, p.missing, missing)
		}
	}
}

// checkArenaTotal recomputes the arena's published-entry count.
func checkArenaTotal(t *testing.T, ar *arena) {
	t.Helper()
	var total int64
	for _, log := range ar.logs {
		total += int64(len(log))
	}
	if ar.total != total {
		t.Fatalf("arena total = %d, logs hold %d entries", ar.total, total)
	}
}

// checkMergeState recomputes from scratch what merge's shortcuts rely on:
// the maintained Σver, the per-sender snapshot watermarks (no larger than
// the receiver's own sum, which absorbed that snapshot, nor the sender's
// current one, which only grew since), the G watermark (every log prefix
// ρ has seen is inside G(ρ), so merge may start walking at ver[s]), and
// the per-step scratch being back in its resting state.
func checkMergeState(t *testing.T, pi int, p *earsProc, procs []*earsProc) {
	t.Helper()
	var sum int64
	for _, v := range p.ver {
		sum += int64(v)
	}
	if p.sumVer != sum {
		t.Fatalf("proc %d: sumVer = %d, Σver = %d", pi, p.sumVer, sum)
	}
	for s, m := range p.merged {
		if m > p.sumVer || m > procs[s].sumVer {
			t.Fatalf("proc %d: merged[%d] = %d exceeds own sum %d or sender's %d",
				pi, s, m, p.sumVer, procs[s].sumVer)
		}
	}
	for b, v := range p.ver {
		if b == pi {
			continue // own log: known is checked against it entry by entry
		}
		for _, g := range p.ar.logs[b][:v] {
			if !p.known.has(int(g)) {
				t.Fatalf("proc %d: saw %d entries of log %d but does not know gossip %d", pi, v, b, g)
			}
		}
	}
	if p.replied.count() != 0 || p.replied.popcount() != 0 {
		t.Fatalf("proc %d: reply scratch not empty between steps", pi)
	}
	for i, v := range p.sampleTable {
		if v != i {
			t.Fatalf("proc %d: sampleTable[%d] = %d, want the identity", pi, i, v)
		}
	}
}

func TestEARSInvariantsUnderRandomSchedules(t *testing.T) {
	for _, proto := range []sim.Protocol{EARS{}, SEARS{}} {
		for seed := uint64(0); seed < 8; seed++ {
			h := newEarsHarness(proto, 9, 3, seed)
			h.checkInvariants(t)
			for r := 0; r < 25; r++ {
				h.round()
				h.checkInvariants(t)
			}
		}
	}
}

// refMerge is the merge earsProc shipped with before its cost was made to
// follow the payload's news: walk the sender's whole log prefix, then
// compare all N version entries. It is the specification merge is held to.
func refMerge(p *earsProc, s sim.ProcID, pl *earsPayload) (news, senderBehind bool) {
	// G-merge: the sender's gossip set is its log prefix.
	for _, g := range p.ar.prefix(s, pl.GLen) {
		if !p.known.has(int(g)) {
			p.learn(g)
			news = true
		}
	}
	// I-merge: take the pointwise maximum of the version vectors,
	// accounting each newly covered log entry.
	for b := 0; b < p.env.N; b++ {
		v := pl.Ver[b]
		if v < p.ver[b] {
			senderBehind = true
		}
		if b == int(p.env.ID) || v <= p.ver[b] {
			continue
		}
		for _, g := range p.ar.logs[b][p.ver[b]:v] {
			p.see(sim.ProcID(b), g)
		}
		p.ver[b] = v
		p.verDirty = true
		news = true
	}
	return news, senderBehind
}

// TestEARSMergeMatchesReference drives two copies of one system — merge
// on one, refMerge on the other — through random schedules and compares
// the complete protocol-visible state after every single delivery. Every
// snapshot ever taken stays deliverable, so the schedules are full of what
// the shortcuts exist for and must not get wrong: the same snapshot again,
// an older snapshot after a newer one (UGF's delays do this), deliveries
// to a receiver that has seen it all. A share of the payloads reaches the
// merge the way the live runtime delivers them, decoded from the wire
// into a fresh value, and a share through budgetProc's absorb-only path.
func TestEARSMergeMatchesReference(t *testing.T) {
	type flight struct {
		from     sim.ProcID
		got, ref *earsPayload
	}
	for seed := uint64(0); seed < 24; seed++ {
		rng := xrand.New(xrand.Derive(seed, 77))
		n := 3 + rng.Intn(10)
		f := rng.Intn(n / 2)
		got := BudgetCapped{}.New(makeEnvs(n, f, seed))
		var gotEars, refEars []*earsProc
		for _, p := range got {
			gotEars = append(gotEars, p.(*budgetProc).earsProc)
		}
		for _, p := range (EARS{}).New(makeEnvs(n, f, seed)) {
			refEars = append(refEars, p.(*earsProc))
		}
		var flights []flight
		noNews := 0

		for step := 0; step < 60*n; step++ {
			now := sim.Step(step + 1)
			r := rng.Intn(n)
			g, ref := gotEars[r], refEars[r]
			for k := rng.Intn(5); k > 0 && len(flights) > 0; k-- {
				fl := flights[rng.Intn(len(flights))]
				if int(fl.from) == r {
					continue
				}
				pl := fl.got
				if rng.Bernoulli(0.3) {
					pl = wireRoundTrip(t, pl)
				}
				wantNews, wantBehind := refMerge(ref, fl.from, fl.ref)
				if rng.Bernoulli(0.2) {
					// Absorb-only: an exhausted budgetProc merges through
					// Step and reports nothing; the state must still match.
					bp := got[r].(*budgetProc)
					sent := bp.sent
					bp.sent = bp.budget
					out := sim.NewOutbox(sim.ProcID(r), n)
					bp.Step(now, []sim.Message{{From: fl.from, To: sim.ProcID(r), Payload: pl}}, &out)
					bp.sent = sent
					if out.Len() != 0 {
						t.Fatalf("seed %d step %d: absorb-only step sent %d messages", seed, step, out.Len())
					}
				} else {
					news, behind := g.merge(fl.from, pl)
					if news != wantNews || behind != wantBehind {
						t.Fatalf("seed %d step %d: merge(%d→%d) = (news %v, behind %v), reference (%v, %v)",
							seed, step, fl.from, r, news, behind, wantNews, wantBehind)
					}
					if news {
						g.quiet, ref.quiet = 0, 0
					} else {
						g.quiet++
						ref.quiet++
					}
				}
				if !wantNews {
					noNews++
				}
				diffEarsState(t, seed, step, g, ref)
			}
			// End of the local step: maybe snapshot, then publish.
			if rng.Bernoulli(0.6) {
				a, b := g.payload().(*earsPayload), ref.payload().(*earsPayload)
				flights = append(flights, flight{from: sim.ProcID(r), got: a, ref: b})
			}
			g.Commit(now)
			ref.Commit(now)
			if step%16 == 0 {
				checkArenaTotal(t, g.ar)
				for pi, p := range gotEars {
					checkMergeState(t, pi, p, gotEars)
				}
			}
		}
		if noNews == 0 {
			t.Errorf("seed %d: schedule never delivered a payload without news", seed)
		}
	}
}

// wireRoundTrip returns pl as the live runtime's receiver would see it.
func wireRoundTrip(t *testing.T, pl *earsPayload) *earsPayload {
	t.Helper()
	data, err := encodeEars(nil, pl)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := decodeEars(data)
	if err != nil {
		t.Fatal(err)
	}
	return dec.(*earsPayload)
}

// diffEarsState compares everything about two processes that the protocol
// or an outcome can observe.
func diffEarsState(t *testing.T, seed uint64, step int, got, ref *earsProc) {
	t.Helper()
	for _, c := range []struct {
		what     string
		same     bool
		got, ref any
	}{
		{"ver", slices.Equal(got.ver, ref.ver), got.ver, ref.ver},
		{"cnt", slices.Equal(got.cnt, ref.cnt), got.cnt, ref.cnt},
		{"missing", got.missing == ref.missing, got.missing, ref.missing},
		{"known", slices.Equal(got.known.words, ref.known.words) && got.known.n == ref.known.n, got.known, ref.known},
		{"staged", slices.Equal(got.staged, ref.staged), got.staged, ref.staged},
		{"verDirty", got.verDirty == ref.verDirty, got.verDirty, ref.verDirty},
		{"Asleep", got.Asleep() == ref.Asleep(), got.Asleep(), ref.Asleep()},
	} {
		if !c.same {
			t.Fatalf("seed %d step %d proc %d: %s = %v, reference %v", seed, step, got.env.ID, c.what, c.got, c.ref)
		}
	}
}

func TestEARSConverges(t *testing.T) {
	// After enough rounds every process must be asleep and know every
	// gossip. Not every process can end knowledge-complete: the last
	// processes to complete have nobody left listening for their final
	// evidence — that residue is exactly what the paper's inactivity
	// window exists to absorb — but most of the system should get there.
	h := newEarsHarness(EARS{}, 8, 0, 11)
	for r := 0; r < 200; r++ {
		h.round()
	}
	incomplete := 0
	for pi, p := range h.procs {
		if p.missing != 0 {
			incomplete++
		}
		if !p.Asleep() {
			t.Errorf("proc %d not asleep after convergence", pi)
		}
		for g := 0; g < 8; g++ {
			if !p.Knows(sim.ProcID(g)) {
				t.Errorf("proc %d does not know gossip %d", pi, g)
			}
		}
	}
	if incomplete > len(h.procs)/2 {
		t.Errorf("%d/%d processes not knowledge-complete", incomplete, len(h.procs))
	}
}

func TestEARSStarvedProcessStaysAwake(t *testing.T) {
	// The evidence quorum: a quiet process whose own gossip has provably
	// not spread (no evidence from N−F processes) must NOT complete —
	// this is what keeps UGF's isolated ρ̂ sending and makes Strategy
	// 2.k.0 force linear time.
	envs := makeEnvs(4, 1, 5)
	p := EARS{}.New(envs)[0].(*earsProc)
	for i := 0; i < 5*p.window; i++ {
		out := sim.NewOutbox(0, 4)
		p.Step(sim.Step(i+1), nil, &out)
		p.Commit(sim.Step(i + 1))
		if out.Len() == 0 {
			t.Fatalf("step %d: starved process stopped sending", i+1)
		}
	}
	if p.Asleep() {
		t.Fatal("process completed without an evidence quorum")
	}
}

func TestEARSQuorumPlusQuietSleepsAndNewsWakes(t *testing.T) {
	// Drive a 4-process system until all are asleep, then inject a
	// never-heard-from 5th... simpler: run two processes of an N=4, F=2
	// system to convergence between themselves: quorum is N−F = 2, so
	// after exchanging evidence they may sleep on the quiet window even
	// though processes 2 and 3 never speak.
	envs := makeEnvs(4, 2, 5)
	procs := EARS{}.New(envs)
	p0 := procs[0].(*earsProc)
	p1 := procs[1].(*earsProc)
	now := sim.Step(0)
	exchange := func(a, b *earsProc) {
		now++
		outA := sim.NewOutbox(a.env.ID, 4)
		a.Step(now, nil, &outA)
		a.Commit(now)
		var toB []sim.Message
		for _, m := range outA.Drain() {
			if m.To == b.env.ID {
				m.From = a.env.ID
				toB = append(toB, m)
			}
		}
		now++
		outB := sim.NewOutbox(b.env.ID, 4)
		b.Step(now, toB, &outB)
		b.Commit(now)
		var back []sim.Message
		for _, m := range outB.Drain() {
			if m.To == a.env.ID {
				m.From = b.env.ID
				back = append(back, m)
			}
		}
		now++
		outA2 := sim.NewOutbox(a.env.ID, 4)
		a.Step(now, back, &outA2)
		a.Commit(now)
	}
	for i := 0; i < 60 && !(p0.Asleep() && p1.Asleep()); i++ {
		exchange(p0, p1)
		exchange(p1, p0)
	}
	if !p0.Asleep() || !p1.Asleep() {
		t.Fatalf("pair did not complete: p0 asleep=%v (cnt=%d quiet=%d), p1 asleep=%v",
			p0.Asleep(), p0.cnt[0], p0.quiet, p1.Asleep())
	}
	// Now deliver news from process 2: p0 must wake.
	p2 := procs[2].(*earsProc)
	out2 := sim.NewOutbox(2, 4)
	p2.Step(now+1, nil, &out2)
	p2.Commit(now + 1)
	msg := out2.Drain()[0]
	msg.From = 2
	out := sim.NewOutbox(0, 4)
	p0.Step(now+2, []sim.Message{msg}, &out)
	if p0.Asleep() {
		t.Fatal("new information did not wake the sleeping process")
	}
	if !p0.Knows(2) {
		t.Error("process did not learn the delivered gossip")
	}
}

func TestEARSAntiEntropyReplyWhileAsleep(t *testing.T) {
	// A sleeping process receiving a message from a sender that is
	// evidently behind must answer that sender directly (and stay
	// asleep); this is what rescues the last process waiting for
	// completion evidence. Awake processes do not reply — they gossip at
	// full rate already.
	envs := makeEnvs(3, 2, 9) // quorum N−F = 1: own evidence suffices
	procs := EARS{}.New(envs)
	p0 := procs[0].(*earsProc)
	p1 := procs[1].(*earsProc)

	// Capture p1's initial (stale) payload.
	out1 := sim.NewOutbox(1, 3)
	p1.Step(1, nil, &out1)
	p1.Commit(1)
	m := out1.Drain()[0]
	m.From = 1

	// First delivery: news — p0 absorbs it and is awake, so no reply is
	// required by the protocol; it keeps gossiping randomly.
	now := sim.Step(1)
	out0 := sim.NewOutbox(0, 3)
	p0.Step(now, []sim.Message{m}, &out0)
	p0.Commit(now)
	if p0.Asleep() {
		t.Fatal("news should keep p0 awake")
	}

	// Starve p0 until it sleeps on the quiet window.
	for i := 0; i < p0.window; i++ {
		now++
		out := sim.NewOutbox(0, 3)
		p0.Step(now, nil, &out)
		p0.Commit(now)
	}
	if !p0.Asleep() {
		t.Fatal("p0 did not fall asleep")
	}

	// Redeliver the same stale payload: no news, p0 stays asleep, but p1
	// is evidently behind and must get a direct reply.
	now++
	out0 = sim.NewOutbox(0, 3)
	p0.Step(now, []sim.Message{m}, &out0)
	if !p0.Asleep() {
		t.Fatal("stale delivery woke p0")
	}
	msgs := out0.Drain()
	if len(msgs) != 1 || msgs[0].To != 1 {
		t.Fatalf("want exactly one reply to process 1, got %v", msgs)
	}
}

func TestEARSKnowledgeCompleteSleepsImmediately(t *testing.T) {
	// N=1: a lone process is knowledge-complete from the start.
	envs := makeEnvs(1, 0, 1)
	p := EARS{}.New(envs)[0].(*earsProc)
	if !p.Asleep() {
		t.Fatal("singleton process not asleep")
	}
	out := sim.NewOutbox(0, 1)
	p.Step(1, nil, &out)
	if out.Len() != 0 {
		t.Fatal("singleton process sent messages")
	}
}

func TestEARSPayloadSnapshotIsImmutable(t *testing.T) {
	// The version snapshot shared in a message must not change when the
	// sender later learns more.
	envs := makeEnvs(3, 0, 9)
	procs := EARS{}.New(envs)
	p0 := procs[0].(*earsProc)
	out := sim.NewOutbox(0, 3)
	p0.Step(1, nil, &out)
	p0.Commit(1)
	msg := out.Drain()[0]
	snap := msg.Payload.(*earsPayload)
	verBefore := append([]int32(nil), snap.Ver...)

	// Feed process 0 a message from process 1 so its ver changes.
	p1 := procs[1].(*earsProc)
	out1 := sim.NewOutbox(1, 3)
	p1.Step(1, nil, &out1)
	p1.Commit(1)
	m1 := out1.Drain()[0]
	m1.From = 1
	out = sim.NewOutbox(0, 3)
	p0.Step(2, []sim.Message{m1}, &out)
	p0.Commit(2)

	for i, v := range snap.Ver {
		if v != verBefore[i] {
			t.Fatalf("payload snapshot mutated at %d: %d -> %d", i, verBefore[i], v)
		}
	}
}

func TestEARSWindowUsesFAndN(t *testing.T) {
	envs := makeEnvs(10, 3, 1)
	p := EARS{}.New(envs)[0].(*earsProc)
	if p.window != inactivityWindow(10, 3, 1) {
		t.Errorf("window = %d, want %d", p.window, inactivityWindow(10, 3, 1))
	}
	scaled := EARS{WindowScale: 3}.New(envs)[0].(*earsProc)
	if scaled.window != inactivityWindow(10, 3, 3) {
		t.Errorf("scaled window = %d, want %d", scaled.window, inactivityWindow(10, 3, 3))
	}
}

func TestSEARSFanoutTargetsAreDistinctAndNotSelf(t *testing.T) {
	envs := makeEnvs(30, 0, 13)
	procs := SEARS{}.New(envs)
	p := procs[7].(*earsProc)
	out := sim.NewOutbox(7, 30)
	p.Step(1, nil, &out)
	msgs := out.Drain()
	want := (SEARS{}).Fanout(30)
	if len(msgs) != want {
		t.Fatalf("SEARS sent %d messages, want fanout %d", len(msgs), want)
	}
	seen := map[sim.ProcID]bool{}
	for _, m := range msgs {
		if m.To == 7 {
			t.Fatal("SEARS sent to itself")
		}
		if seen[m.To] {
			t.Fatalf("duplicate target %d", m.To)
		}
		seen[m.To] = true
	}
}

func TestSEARSTargetsCoverWholeRange(t *testing.T) {
	// The skip-self index mapping must reach both 0 and N-1.
	envs := makeEnvs(10, 0, 2)
	p := SEARS{C: 100}.New(envs)[5].(*earsProc) // fanout clamps to 9: all others
	out := sim.NewOutbox(5, 10)
	p.Step(1, nil, &out)
	msgs := out.Drain()
	if len(msgs) != 9 {
		t.Fatalf("full-fanout SEARS sent %d, want 9", len(msgs))
	}
	got := map[sim.ProcID]bool{}
	for _, m := range msgs {
		got[m.To] = true
	}
	for q := sim.ProcID(0); q < 10; q++ {
		if q == 5 {
			continue
		}
		if !got[q] {
			t.Errorf("target %d never addressed", q)
		}
	}
}

// TestSEARSStepZeroAlloc pins 0 allocs per local step once a SEARS
// process is in steady state — nothing new arriving, the snapshot clean:
// recipient sampling runs over the process's own table and every send
// reuses the boxed snapshot. The deliveries are repeats of a peer's
// snapshot, so the merge's no-news path is inside the measurement. (The
// engine-side counterpart is internal/sim's TestStepLoopZeroAlloc.)
func TestSEARSStepZeroAlloc(t *testing.T) {
	// N = 5 keeps the fan-out (4) inside the Outbox's inline arrays, so
	// overwriting the one Outbox with a fresh value empties it for free.
	const n = 5
	procs := SEARS{}.New(makeEnvs(n, 1, 3))
	p, peer := procs[0].(*earsProc), procs[1].(*earsProc)
	if p.fanout != n-1 {
		t.Fatalf("fanout = %d, want %d", p.fanout, n-1)
	}
	out := sim.NewOutbox(1, n)
	peer.Step(1, nil, &out)
	peer.Commit(1)
	m := out.Drain()[0]
	m.From = 1
	delivered := []sim.Message{m, m, m}

	now := sim.Step(1)
	step := func() {
		now++
		out = sim.NewOutbox(0, n)
		p.Step(now, delivered, &out)
		p.Commit(now)
		if out.Len() != n-1 {
			t.Fatalf("step %d sent %d messages, want %d", now, out.Len(), n-1)
		}
	}
	step() // absorbs the news, takes the one snapshot
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Errorf("steady-state SEARS step: %v allocs, want 0", allocs)
	}
}
