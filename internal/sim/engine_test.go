package sim

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/ugf-sim/ugf/internal/xrand"
)

// ---- test protocols -------------------------------------------------------

type testPayload struct {
	kind    string
	gossips []ProcID
}

func (p testPayload) Kind() string { return p.kind }

// floodProto: every process sends its own gossip to everyone at its first
// local step, then absorbs. If ack is set, a received gossip is answered
// with a single "ack" message (used to exercise sleep/wake).
type floodProto struct{ ack bool }

func (f floodProto) Name() string { return "flood" }

func (f floodProto) New(envs []Env) []Process {
	return BuildEach(envs, func(env Env) Process {
		fp := &floodProc{env: env, ack: f.ack, known: make([]bool, env.N)}
		fp.known[env.ID] = true
		return fp
	})
}

type floodProc struct {
	env    Env
	ack    bool
	known  []bool
	donned bool // has flooded
}

func (fp *floodProc) Step(now Step, delivered []Message, out *Outbox) {
	for _, m := range delivered {
		pl := m.Payload.(testPayload)
		for _, g := range pl.gossips {
			fp.known[g] = true
		}
		if fp.ack && pl.kind == "gossip" {
			out.Send(m.From, testPayload{kind: "ack"})
		}
	}
	if !fp.donned {
		fp.donned = true
		for q := 0; q < fp.env.N; q++ {
			if ProcID(q) != fp.env.ID {
				out.Send(ProcID(q), testPayload{kind: "gossip", gossips: []ProcID{fp.env.ID}})
			}
		}
	}
}

func (fp *floodProc) Asleep() bool        { return fp.donned }
func (fp *floodProc) Knows(g ProcID) bool { return fp.known[g] }

// silentProto: never sends anything; sleeps after its first step.
type silentProto struct{}

func (silentProto) Name() string { return "silent" }
func (silentProto) New(envs []Env) []Process {
	return BuildEach(envs, func(env Env) Process { return &silentProc{id: env.ID} })
}

type silentProc struct {
	id      ProcID
	stepped bool
}

func (s *silentProc) Step(now Step, delivered []Message, out *Outbox) { s.stepped = true }
func (s *silentProc) Asleep() bool                                    { return s.stepped }
func (s *silentProc) Knows(g ProcID) bool                             { return g == s.id }

// busyProto: sends one message to the next process at every local step and
// never sleeps. Used to exercise the horizon and event cutoffs.
type busyProto struct{}

func (busyProto) Name() string { return "busy" }
func (busyProto) New(envs []Env) []Process {
	return BuildEach(envs, func(env Env) Process { return &busyProc{env: env} })
}

type busyProc struct{ env Env }

func (b *busyProc) Step(now Step, delivered []Message, out *Outbox) {
	out.Send(ProcID((int(b.env.ID)+1)%b.env.N), testPayload{kind: "noise"})
}
func (b *busyProc) Asleep() bool        { return false }
func (b *busyProc) Knows(g ProcID) bool { return g == b.env.ID }

// chaosProto: a randomized protocol used for the serial/parallel
// equivalence property. Each process gossips to random targets for a
// random number of steps, sometimes replies to senders, then sleeps.
type chaosProto struct{}

func (chaosProto) Name() string { return "chaos" }
func (chaosProto) New(envs []Env) []Process {
	return BuildEach(envs, func(env Env) Process {
		cp := &chaosProc{env: env, known: make([]bool, env.N)}
		cp.known[env.ID] = true
		cp.rounds = 1 + env.RNG.Intn(5)
		return cp
	})
}

type chaosProc struct {
	env    Env
	known  []bool
	rounds int
	done   int
}

func (c *chaosProc) Step(now Step, delivered []Message, out *Outbox) {
	for _, m := range delivered {
		pl := m.Payload.(testPayload)
		for _, g := range pl.gossips {
			c.known[g] = true
		}
		if pl.kind == "gossip" && c.env.RNG.Bernoulli(0.3) {
			out.Send(m.From, testPayload{kind: "reply", gossips: c.snapshot()})
		}
	}
	if c.done < c.rounds {
		c.done++
		fanout := 1 + c.env.RNG.Intn(3)
		for i := 0; i < fanout && c.env.N > 1; i++ {
			to := ProcID(c.env.RNG.IntnExcept(c.env.N, int(c.env.ID)))
			out.Send(to, testPayload{kind: "gossip", gossips: c.snapshot()})
		}
	}
}

func (c *chaosProc) snapshot() []ProcID {
	var out []ProcID
	for g, ok := range c.known {
		if ok {
			out = append(out, ProcID(g))
		}
	}
	return out
}

func (c *chaosProc) Asleep() bool        { return c.done >= c.rounds }
func (c *chaosProc) Knows(g ProcID) bool { return c.known[g] }

// ---- test adversary -------------------------------------------------------

// advFunc is a scriptable adversary for tests.
type advFunc struct {
	name    string
	init    func(View, Control)
	observe func(Step, []SendRecord, View, Control)
}

func (a advFunc) Name() string { return a.name }
func (a advFunc) New(n, f int, rng *xrand.RNG) AdversaryInstance {
	return &advFuncInst{a: a}
}

type advFuncInst struct{ a advFunc }

func (ai *advFuncInst) Init(v View, c Control) {
	if ai.a.init != nil {
		ai.a.init(v, c)
	}
}
func (ai *advFuncInst) Observe(now Step, ev []SendRecord, v View, c Control) {
	if ai.a.observe != nil {
		ai.a.observe(now, ev, v, c)
	}
}
func (ai *advFuncInst) Label() string { return "" }

// ---- tests ----------------------------------------------------------------

func mustRun(t *testing.T, cfg Config) Outcome {
	t.Helper()
	o, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return o
}

func TestFloodGathersAndQuiesces(t *testing.T) {
	rec := &Recorder{}
	o := mustRun(t, Config{N: 5, F: 0, Protocol: floodProto{}, Seed: 1, Trace: rec})
	if !o.Gathered {
		t.Error("flood did not gather")
	}
	if o.HorizonHit {
		t.Error("unexpected horizon hit")
	}
	if want := int64(5 * 4); o.Messages != want {
		t.Errorf("Messages = %d, want %d", o.Messages, want)
	}
	if o.TEnd != 1 {
		t.Errorf("TEnd = %d, want 1 (all sends happen at step 1)", o.TEnd)
	}
	if o.Quiescence != 2 {
		t.Errorf("Quiescence = %d, want 2", o.Quiescence)
	}
	if o.DeltaMax != 1 || o.DelayMax != 1 {
		t.Errorf("δ=%d d=%d, want 1,1", o.DeltaMax, o.DelayMax)
	}
	if o.Time != 0.5 {
		t.Errorf("Time = %v, want 0.5", o.Time)
	}
	for p, m := range sendsByProc(rec, 5) {
		if m != 4 {
			t.Errorf("process %d sent %d, want 4", p, m)
		}
	}
	if got := rec.Count(TraceSend); got != 20 {
		t.Errorf("trace sends = %d, want 20", got)
	}
	if got := rec.Count(TraceArrive); got != 20 {
		t.Errorf("trace arrivals = %d, want 20", got)
	}
}

func TestSilentProtocolOutcome(t *testing.T) {
	o := mustRun(t, Config{N: 3, F: 0, Protocol: silentProto{}, Seed: 1})
	if o.Gathered {
		t.Error("silent protocol cannot gather")
	}
	if o.Messages != 0 || o.TEnd != 0 || o.Time != 0 {
		t.Errorf("unexpected activity: %+v", o)
	}
	if o.Quiescence != 1 {
		t.Errorf("Quiescence = %d, want 1 (single local step)", o.Quiescence)
	}
}

func TestSingleProcess(t *testing.T) {
	o := mustRun(t, Config{N: 1, F: 0, Protocol: floodProto{}, Seed: 1})
	if !o.Gathered {
		t.Error("single process trivially gathers")
	}
	if o.Messages != 0 {
		t.Errorf("Messages = %d, want 0", o.Messages)
	}
}

func TestDeliveryDelay(t *testing.T) {
	rec := &Recorder{}
	adv := advFunc{name: "delay0", init: func(v View, c Control) { c.SetDelay(0, 5) }}
	mustRun(t, Config{N: 2, F: 1, Protocol: floodProto{}, Adversary: adv, Seed: 1, Trace: rec})
	// Process 0 sends at step 1; with d_0 = 5 its message must arrive at 6.
	found := false
	for _, ev := range rec.Events {
		if ev.Kind == TraceArrive && ev.Proc == 1 && ev.Other == 0 {
			found = true
			if ev.Step != 6 {
				t.Errorf("message 0->1 arrived at %d, want 6", ev.Step)
			}
		}
	}
	if !found {
		t.Fatal("message 0->1 never arrived")
	}
}

func TestDeltaSchedulesFirstStep(t *testing.T) {
	rec := &Recorder{}
	adv := advFunc{name: "slow0", init: func(v View, c Control) { c.SetDelta(0, 4) }}
	mustRun(t, Config{N: 2, F: 1, Protocol: floodProto{}, Adversary: adv, Seed: 1, Trace: rec})
	for _, ev := range rec.Events {
		if ev.Kind == TraceLocalStep && ev.Proc == 0 {
			if ev.Step != 4 {
				t.Errorf("process 0 first local step at %d, want 4", ev.Step)
			}
			break
		}
	}
}

func TestDeltaPhase(t *testing.T) {
	rec := &Recorder{}
	adv := advFunc{name: "slow0", init: func(v View, c Control) { c.SetDelta(0, 3) }}
	mustRun(t, Config{N: 2, F: 1, Protocol: busyProto{}, Adversary: adv, Seed: 1,
		Trace: rec, Horizon: 10})
	var steps []Step
	for _, ev := range rec.Events {
		if ev.Kind == TraceLocalStep && ev.Proc == 0 {
			steps = append(steps, ev.Step)
		}
	}
	want := []Step{3, 6, 9}
	if !reflect.DeepEqual(steps, want) {
		t.Errorf("process 0 local steps = %v, want %v", steps, want)
	}
}

func TestSetDeltaMidRunReanchors(t *testing.T) {
	rec := &Recorder{}
	adv := advFunc{name: "reslow", observe: func(now Step, ev []SendRecord, v View, c Control) {
		if now == 5 {
			c.SetDelta(0, 10)
		}
	}}
	mustRun(t, Config{N: 2, F: 1, Protocol: busyProto{}, Adversary: adv, Seed: 1,
		Trace: rec, Horizon: 40})
	var steps []Step
	for _, ev := range rec.Events {
		if ev.Kind == TraceLocalStep && ev.Proc == 0 {
			steps = append(steps, ev.Step)
		}
	}
	// δ=1 until the rewrite at step 5, so steps 1..4, then re-anchored at 5
	// with δ=10: 15, 25, 35.
	want := []Step{1, 2, 3, 4, 15, 25, 35}
	if !reflect.DeepEqual(steps, want) {
		t.Errorf("process 0 local steps = %v, want %v", steps, want)
	}
}

func TestCrashBudgetEnforced(t *testing.T) {
	var results []bool
	adv := advFunc{name: "greedy", init: func(v View, c Control) {
		for p := 0; p < v.N(); p++ {
			results = append(results, c.Crash(ProcID(p)))
		}
	}}
	o := mustRun(t, Config{N: 5, F: 2, Protocol: floodProto{}, Adversary: adv, Seed: 1})
	if o.Crashed != 2 {
		t.Errorf("Crashed = %d, want 2", o.Crashed)
	}
	want := []bool{true, true, false, false, false}
	if !reflect.DeepEqual(results, want) {
		t.Errorf("crash results = %v, want %v", results, want)
	}
}

func TestCrashIsIdempotent(t *testing.T) {
	adv := advFunc{name: "twice", init: func(v View, c Control) {
		if !c.Crash(0) {
			t.Error("first crash refused")
		}
		if c.Crash(0) {
			t.Error("second crash of same process accepted")
		}
		if c.BudgetLeft() != 1 {
			t.Errorf("BudgetLeft = %d, want 1", c.BudgetLeft())
		}
	}}
	mustRun(t, Config{N: 3, F: 2, Protocol: floodProto{}, Adversary: adv, Seed: 1})
}

func TestCrashBeforeDeliveryDropsMessage(t *testing.T) {
	rec := &Recorder{}
	adv := advFunc{name: "snipe", observe: func(now Step, ev []SendRecord, v View, c Control) {
		if now == 2 {
			c.Crash(1)
		}
	}}
	o := mustRun(t, Config{N: 2, F: 1, Protocol: floodProto{}, Adversary: adv, Seed: 1, Trace: rec})
	for _, ev := range rec.Events {
		if ev.Kind == TraceArrive && ev.Proc == 1 {
			t.Error("crashed process 1 still received a message")
		}
	}
	// Process 0's message to 1 was sent (counted) but dropped.
	if o.Messages != 2 {
		t.Errorf("Messages = %d, want 2", o.Messages)
	}
	// Process 1's message to 0, sent at step 1 before the crash, arrives.
	found := false
	for _, ev := range rec.Events {
		if ev.Kind == TraceArrive && ev.Proc == 0 && ev.Other == 1 {
			found = true
		}
	}
	if !found {
		t.Error("message from process crashed after sending was lost")
	}
}

func TestCrashedProcessTakesNoSteps(t *testing.T) {
	rec := &Recorder{}
	adv := advFunc{name: "kill0", init: func(v View, c Control) { c.Crash(0) }}
	mustRun(t, Config{N: 3, F: 1, Protocol: floodProto{}, Adversary: adv, Seed: 1, Trace: rec})
	for _, ev := range rec.Events {
		if ev.Kind == TraceLocalStep && ev.Proc == 0 {
			t.Fatal("crashed process took a local step")
		}
		if ev.Kind == TraceSend && ev.Proc == 0 {
			t.Fatal("crashed process sent a message")
		}
	}
}

func TestGatheringIgnoresCrashed(t *testing.T) {
	// Crash process 0 at the start: the two survivors must still gather
	// (each other's gossip only).
	adv := advFunc{name: "kill0", init: func(v View, c Control) { c.Crash(0) }}
	o := mustRun(t, Config{N: 3, F: 1, Protocol: floodProto{}, Adversary: adv, Seed: 1})
	if !o.Gathered {
		t.Error("survivors exchanged gossips but Gathered is false")
	}
}

func TestOmission(t *testing.T) {
	rec := &Recorder{}
	adv := advFunc{name: "omit0", init: func(v View, c Control) { c.SetOmitFrom(0, true) }}
	o := mustRun(t, Config{N: 2, F: 1, Protocol: floodProto{}, Adversary: adv, Seed: 1, Trace: rec})
	if o.Messages != 2 {
		t.Errorf("Messages = %d, want 2 (omitted sends still count)", o.Messages)
	}
	for _, ev := range rec.Events {
		if ev.Kind == TraceArrive && ev.Proc == 1 {
			t.Error("omitted message was delivered")
		}
	}
	if o.Gathered {
		t.Error("gathering impossible with omitted sender")
	}
}

func TestSleepWakeTransitions(t *testing.T) {
	rec := &Recorder{}
	mustRun(t, Config{N: 2, F: 0, Protocol: floodProto{ack: true}, Seed: 1, Trace: rec})
	// Both processes flood at 1 and sleep; gossip arrivals at 2 trigger an
	// ack send. The ack send happens from the "asleep" state (Def. IV.2
	// allows responding), so no wake event is required — but sleep events
	// must exist and the acks must flow.
	if got := rec.Count(TraceSleep); got != 2 {
		t.Errorf("sleep events = %d, want 2", got)
	}
	acks := 0
	for _, ev := range rec.Events {
		if ev.Kind == TraceSend && ev.Payload != nil && ev.Payload.Kind() == "ack" {
			acks++
		}
	}
	if acks != 2 {
		t.Errorf("acks sent = %d, want 2", acks)
	}
}

func TestHorizonCutoff(t *testing.T) {
	o := mustRun(t, Config{N: 3, F: 0, Protocol: busyProto{}, Seed: 1, Horizon: 100})
	if !o.HorizonHit {
		t.Fatal("busy protocol must hit the horizon")
	}
	if o.Quiescence > 100 {
		t.Errorf("run advanced to %d past horizon 100", o.Quiescence)
	}
}

func TestMaxEventsCutoff(t *testing.T) {
	o := mustRun(t, Config{N: 3, F: 0, Protocol: busyProto{}, Seed: 1, MaxEvents: 500})
	if !o.HorizonHit {
		t.Fatal("busy protocol must hit the event cutoff")
	}
}

func TestQuiescenceWaitsForInflight(t *testing.T) {
	adv := advFunc{name: "slowNet", init: func(v View, c Control) {
		c.SetDelay(0, 10)
		c.SetDelay(1, 10)
	}}
	o := mustRun(t, Config{N: 2, F: 1, Protocol: floodProto{}, Adversary: adv, Seed: 1})
	if o.Quiescence != 11 {
		t.Errorf("Quiescence = %d, want 11 (messages in flight until 11)", o.Quiescence)
	}
	if o.TEnd != 1 {
		t.Errorf("TEnd = %d, want 1", o.TEnd)
	}
	if o.DelayMax != 10 {
		t.Errorf("DelayMax = %d, want 10", o.DelayMax)
	}
	if want := 1.0 / 11.0; o.Time != want {
		t.Errorf("Time = %v, want %v", o.Time, want)
	}
}

func TestComplexityMaximaExcludeCrashed(t *testing.T) {
	adv := advFunc{name: "delayAndKill", init: func(v View, c Control) {
		c.SetDelay(0, 100)
		c.SetDelta(0, 100)
		c.Crash(0)
	}}
	o := mustRun(t, Config{N: 3, F: 1, Protocol: floodProto{}, Adversary: adv, Seed: 1})
	if o.DelayMax != 1 || o.DeltaMax != 1 {
		t.Errorf("δ=%d d=%d, want 1,1 — crashed processes must not count", o.DeltaMax, o.DelayMax)
	}
}

func TestLastSendExcludesCrashed(t *testing.T) {
	// Process 0 keeps sending until crashed at step 50; the flood
	// processes finish at step 1. TEnd must reflect only survivors.
	mixed := protoMix{}
	adv := advFunc{name: "lateKill", observe: func(now Step, ev []SendRecord, v View, c Control) {
		if now == 50 {
			c.Crash(0)
		}
	}}
	o := mustRun(t, Config{N: 3, F: 1, Protocol: mixed, Adversary: adv, Seed: 1})
	if o.TEnd != 1 {
		t.Errorf("TEnd = %d, want 1: sends by the crashed process must not count", o.TEnd)
	}
	if o.Messages < 50 {
		t.Errorf("Messages = %d, want ≥ 50 (crashed sender's messages count in M)", o.Messages)
	}
}

// protoMix: process 0 is busy (never sleeps), the rest flood once.
type protoMix struct{}

func (protoMix) Name() string { return "mix" }
func (protoMix) New(envs []Env) []Process {
	procs := make([]Process, len(envs))
	for i, env := range envs {
		if i == 0 {
			procs[i] = &busyProc{env: env}
		} else {
			fp := &floodProc{env: env, known: make([]bool, env.N)}
			fp.known[env.ID] = true
			procs[i] = fp
		}
	}
	return procs
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{N: 0, Protocol: floodProto{}},
		{N: 3, F: -1, Protocol: floodProto{}},
		{N: 3, F: 3, Protocol: floodProto{}},
		{N: 3, F: 0},
		{N: 3, F: 0, Protocol: floodProto{}, Horizon: -1},
		{N: 3, F: 0, Protocol: floodProto{}, MaxEvents: -1},
	}
	for i, cfg := range cases {
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestProtocolArityChecked(t *testing.T) {
	bad := badArityProto{}
	if _, err := Run(Config{N: 3, F: 0, Protocol: bad}); err == nil {
		t.Fatal("protocol returning wrong process count accepted")
	}
}

type badArityProto struct{}

func (badArityProto) Name() string             { return "bad" }
func (badArityProto) New(envs []Env) []Process { return nil }

func TestOutboxSendValidation(t *testing.T) {
	var ob Outbox
	ob.reset(0, 3)
	mustPanic(t, "out of range", func() { ob.Send(3, testPayload{}) })
	mustPanic(t, "negative", func() { ob.Send(-1, testPayload{}) })
	mustPanic(t, "self-send", func() { ob.Send(0, testPayload{}) })
	ob.Send(1, testPayload{})
	if ob.Len() != 1 {
		t.Errorf("Len = %d, want 1", ob.Len())
	}
}

// sendsByProc reads M_ρ(O) for every process off a trace: its TraceSend
// events.
func sendsByProc(rec *Recorder, n int) []int64 {
	sends := make([]int64, n)
	for _, ev := range rec.Events {
		if ev.Kind == TraceSend {
			sends[ev.Proc]++
		}
	}
	return sends
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", name)
		}
	}()
	fn()
}

func TestSerialParallelEquivalence(t *testing.T) {
	prop := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%30 + 2
		base := Config{N: n, F: 0, Protocol: chaosProto{}, Seed: seed}
		serial := base
		serial.Workers = 1
		parallel := base
		parallel.Workers = 8
		so, err := Run(serial)
		if err != nil {
			return false
		}
		po, err := Run(parallel)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(so.StripWall(), po.StripWall())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRunDeterminism(t *testing.T) {
	cfg := Config{N: 17, F: 5, Protocol: chaosProto{}, Seed: 77}
	a := mustRun(t, cfg)
	b := mustRun(t, cfg)
	if !reflect.DeepEqual(a.StripWall(), b.StripWall()) {
		t.Fatalf("same config diverged:\n%+v\n%+v", a, b)
	}
}

func TestMessageAccountingIdentity(t *testing.T) {
	prop := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%20 + 2
		rec := &Recorder{}
		o, err := Run(Config{N: n, F: 0, Protocol: chaosProto{}, Seed: seed, Trace: rec})
		if err != nil {
			return false
		}
		var sum, byKind int64
		for _, m := range sendsByProc(rec, n) {
			sum += m
		}
		for _, kc := range o.Stats.MessagesByKind {
			byKind += kc.Count
		}
		return sum == o.Messages && byKind == o.Messages && o.Stats.Sends == o.Messages
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSchedulerHeapOrdering(t *testing.T) {
	prop := func(vals []int64) bool {
		var s scheduler
		s.init(0)
		for _, v := range vals {
			s.scheduleDelivery(Step(v))
		}
		prev := schedEvent{at: math.MinInt64, mark: math.MinInt32}
		for range vals {
			ev := s.pop()
			if ev.less(prev) {
				return false
			}
			prev = ev
		}
		return len(s.heap) == 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampling(t *testing.T) {
	var snaps []Snapshot
	o := mustRun(t, Config{
		N: 6, F: 0, Protocol: floodProto{}, Seed: 1,
		Sample: func(s Snapshot) { snaps = append(snaps, s) },
	})
	if len(snaps) == 0 {
		t.Fatal("no snapshots taken")
	}
	last := snaps[len(snaps)-1]
	if last.Coverage != 1 {
		t.Errorf("final coverage = %v, want 1 (flood gathers)", last.Coverage)
	}
	if last.Messages != o.Messages {
		t.Errorf("final snapshot M = %d, want %d", last.Messages, o.Messages)
	}
	// Coverage is monotone for flood (knowledge only grows, no crashes).
	prev := -1.0
	for _, s := range snaps {
		if s.Coverage < prev {
			t.Errorf("coverage regressed: %v after %v", s.Coverage, prev)
		}
		prev = s.Coverage
		if s.Coverage < 0 || s.Coverage > 1 {
			t.Errorf("coverage out of range: %v", s.Coverage)
		}
	}
}

func TestSamplingEvery(t *testing.T) {
	var steps []Step
	mustRun(t, Config{
		N: 4, F: 0, Protocol: busyProto{}, Seed: 1, Horizon: 50,
		Sample:      func(s Snapshot) { steps = append(steps, s.Now) },
		SampleEvery: 10,
	})
	if len(steps) < 4 {
		t.Fatalf("too few samples: %v", steps)
	}
	for i := 1; i < len(steps)-1; i++ {
		if steps[i]-steps[i-1] < 10 {
			t.Errorf("samples %d and %d closer than SampleEvery: %v", i-1, i, steps)
		}
	}
}

func TestSamplingSingleCorrect(t *testing.T) {
	// With fewer than two correct processes coverage is trivially 1.
	adv := advFunc{name: "killAllButOne", init: func(v View, c Control) {
		c.Crash(0)
	}}
	var last Snapshot
	mustRun(t, Config{
		N: 2, F: 1, Protocol: silentProto{}, Adversary: adv, Seed: 1,
		Sample: func(s Snapshot) { last = s },
	})
	if last.Coverage != 1 {
		t.Errorf("singleton coverage = %v, want 1", last.Coverage)
	}
	if last.Crashed != 1 {
		t.Errorf("snapshot crashed = %d, want 1", last.Crashed)
	}
}

func TestTraceEventStrings(t *testing.T) {
	evs := []TraceEvent{
		{Kind: TraceSend, Step: 3, Proc: 1, Other: 2, Payload: testPayload{kind: "x"}},
		{Kind: TraceCrash, Step: 5, Proc: 4},
		{Kind: TraceEnd, Step: 9, Proc: -1, Note: "quiescence"},
	}
	for _, ev := range evs {
		if ev.String() == "" {
			t.Errorf("empty String for %v", ev.Kind)
		}
	}
	if TraceKind(250).String() == "" {
		t.Error("unknown kind must still format")
	}
}

func TestOutcomeString(t *testing.T) {
	o := Outcome{Protocol: "p", Adversary: "a", Strategy: "2.1.0", N: 10, F: 3}
	if s := o.String(); s == "" {
		t.Error("empty Outcome string")
	}
	o.Strategy = ""
	if s := o.String(); s == "" {
		t.Error("empty Outcome string without strategy")
	}
}

func BenchmarkEngineFlood(b *testing.B) {
	for _, n := range []int{100, 500} {
		b.Run(map[int]string{100: "N=100", 500: "N=500"}[n], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Run(Config{N: n, F: 0, Protocol: floodProto{}, Seed: uint64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
