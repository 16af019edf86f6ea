package gossip

import (
	"reflect"
	"testing"

	"github.com/ugf-sim/ugf/internal/sim"
)

// Cross-protocol integration tests: every protocol in the registry must
// gather and quiesce without an adversary, deterministically, and behave
// identically under parallel stepping.

func allProtocols() []sim.Protocol {
	var out []sim.Protocol
	for _, name := range Names() {
		out = append(out, MustByName(name))
	}
	// A couple of parameterized variants on top of the registry defaults.
	out = append(out,
		EARS{WindowScale: 2},
		SEARS{C: 2, Epsilon: 0.3},
		BudgetCapped{Alpha: 1},
		Adaptive{GiveUpFactor: 8},
	)
	return out
}

// gatheringProtocols are the protocols that promise rumor gathering
// without an adversary. Two registry members deliberately do not:
// BudgetCapped's hard message budget is the α knob of the Theorem 1
// trade-off experiment (trading away gathering reliability is the
// measured effect), and Push keeps no completion evidence at all — the
// textbook weakness that motivates the evidence machinery of the
// evaluated protocols (see the Push type comment).
func gatheringProtocols() []sim.Protocol {
	var out []sim.Protocol
	for _, p := range allProtocols() {
		switch p.(type) {
		case BudgetCapped, Push:
		default:
			out = append(out, p)
		}
	}
	return out
}

func TestPushGathersUsually(t *testing.T) {
	// Push-only has no spread guarantee, but at moderate N the inactivity
	// window makes premature sleep rare.
	fails := 0
	const runs = 30
	for seed := uint64(0); seed < runs; seed++ {
		o, err := sim.Run(sim.Config{N: 30, F: 10, Protocol: Push{}, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if o.HorizonHit {
			t.Fatalf("seed %d: push did not quiesce", seed)
		}
		if !o.Gathered {
			fails++
		}
	}
	if fails > 3 {
		t.Errorf("push failed gathering on %d/%d adversary-free runs", fails, runs)
	}
}

func TestAllProtocolsGatherWithoutAdversary(t *testing.T) {
	for _, proto := range gatheringProtocols() {
		proto := proto
		t.Run(proto.Name(), func(t *testing.T) {
			t.Parallel()
			fails := 0
			const runs = 30
			for seed := uint64(0); seed < runs; seed++ {
				n := 5 + int(seed%4)*15 // 5, 20, 35, 50
				o, err := sim.Run(sim.Config{
					N: n, F: n / 3, Protocol: proto, Seed: seed,
					MaxEvents: 5_000_000,
				})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if o.HorizonHit {
					t.Fatalf("seed %d: protocol did not quiesce: %+v", seed, o)
				}
				if !o.Gathered {
					fails++
				}
				if o.Messages <= 0 && n > 1 {
					t.Errorf("seed %d: no messages sent", seed)
				}
			}
			// Timeout-based completion (EARS family) can in principle
			// fail gathering on unlucky runs; it must be rare.
			if fails > 1 {
				t.Errorf("gathering failed on %d/%d adversary-free runs", fails, runs)
			}
		})
	}
}

func TestAllProtocolsDeterministic(t *testing.T) {
	for _, proto := range allProtocols() {
		proto := proto
		t.Run(proto.Name(), func(t *testing.T) {
			t.Parallel()
			cfg := sim.Config{N: 23, F: 7, Protocol: proto, Seed: 99}
			a, err := sim.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := sim.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a.StripWall(), b.StripWall()) {
				t.Fatalf("non-deterministic outcome:\n%+v\n%+v", a, b)
			}
		})
	}
}

func TestAllProtocolsSerialParallelEquivalence(t *testing.T) {
	for _, proto := range allProtocols() {
		proto := proto
		t.Run(proto.Name(), func(t *testing.T) {
			t.Parallel()
			for seed := uint64(0); seed < 5; seed++ {
				base := sim.Config{N: 40, F: 12, Protocol: proto, Seed: seed}
				serial := base
				serial.Workers = 1
				parallel := base
				parallel.Workers = 6
				so, err := sim.Run(serial)
				if err != nil {
					t.Fatal(err)
				}
				po, err := sim.Run(parallel)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(so.StripWall(), po.StripWall()) {
					t.Fatalf("seed %d: parallel ≠ serial:\n%+v\n%+v", seed, so, po)
				}
			}
		})
	}
}

func TestRoundRobinExactComplexities(t *testing.T) {
	// Example 1: M(O) = N(N-1) and the last send happens at step N-1.
	for _, n := range []int{2, 5, 10, 33} {
		o, err := sim.Run(sim.Config{N: n, F: 0, Protocol: RoundRobin{}, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(n * (n - 1)); o.Messages != want {
			t.Errorf("N=%d: M = %d, want %d", n, o.Messages, want)
		}
		if want := sim.Step(n - 1); o.TEnd != want {
			t.Errorf("N=%d: TEnd = %d, want %d", n, o.TEnd, want)
		}
		if !o.Gathered {
			t.Errorf("N=%d: round-robin failed to gather", n)
		}
		// T(O) = (N-1)/2: Θ(N) as Example 1 states.
		if want := float64(n-1) / 2; o.Time != want {
			t.Errorf("N=%d: T = %v, want %v", n, o.Time, want)
		}
	}
}

func TestBroadcastExactComplexities(t *testing.T) {
	for _, n := range []int{2, 10, 50} {
		o, err := sim.Run(sim.Config{N: n, F: 0, Protocol: Broadcast{}, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(n * (n - 1)); o.Messages != want {
			t.Errorf("N=%d: M = %d, want %d", n, o.Messages, want)
		}
		if o.TEnd != 1 {
			t.Errorf("N=%d: TEnd = %d, want 1", n, o.TEnd)
		}
		if !o.Gathered {
			t.Errorf("N=%d: broadcast failed to gather", n)
		}
	}
}

func TestPushPullBaselineIsSubLinear(t *testing.T) {
	// Without an adversary Push-Pull completes in logarithmic time and
	// quasi-linear messages; check generous super-bounds so the test stays
	// robust while still ruling out linear time / quadratic messages.
	const n = 200
	var worstT float64
	var worstM int64
	for seed := uint64(0); seed < 5; seed++ {
		o, err := sim.Run(sim.Config{N: n, F: 0, Protocol: PushPull{}, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if !o.Gathered {
			t.Fatalf("seed %d: no gathering", seed)
		}
		if o.Time > worstT {
			worstT = o.Time
		}
		if o.Messages > worstM {
			worstM = o.Messages
		}
	}
	if worstT > float64(n)/4 {
		t.Errorf("baseline Push-Pull time %v looks linear (N=%d)", worstT, n)
	}
	if worstM > int64(n*n)/4 {
		t.Errorf("baseline Push-Pull messages %d look quadratic (N=%d)", worstM, n)
	}
}

func TestEARSBaselineIsSubLinear(t *testing.T) {
	const n = 200
	for seed := uint64(0); seed < 5; seed++ {
		o, err := sim.Run(sim.Config{N: n, F: n / 3, Protocol: EARS{}, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if o.Time > float64(n)/4 {
			t.Errorf("seed %d: baseline EARS time %v looks linear", seed, o.Time)
		}
		if o.Messages > int64(n*n)/4 {
			t.Errorf("seed %d: baseline EARS messages %d look quadratic", seed, o.Messages)
		}
	}
}

func TestSEARSBaselineIsFastAndMessageHeavy(t *testing.T) {
	// SEARS buys near-constant time with ~quadratic messages even without
	// an attack (Section V-B3).
	const n = 200
	o, err := sim.Run(sim.Config{N: n, F: n / 3, Protocol: SEARS{}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !o.Gathered {
		t.Fatal("SEARS failed to gather")
	}
	if o.Time > 20 {
		t.Errorf("SEARS time %v, want near-constant", o.Time)
	}
	if o.Messages < int64(n*n)/8 {
		t.Errorf("SEARS messages %d, want near-quadratic (N²=%d)", o.Messages, n*n)
	}
}

func TestBudgetCappedNeverExceedsBudget(t *testing.T) {
	for _, alpha := range []int{1, 2, 4, 8} {
		proto := BudgetCapped{Alpha: alpha}
		rec := &sim.Recorder{}
		o, err := sim.Run(sim.Config{
			N: 60, F: 18, Protocol: proto, Seed: 7, Trace: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		budget := int64(proto.Budget(60))
		sent := make([]int64, 60)
		for _, ev := range rec.Events {
			if ev.Kind == sim.TraceSend {
				sent[ev.Proc]++
			}
		}
		for p, m := range sent {
			if m > budget {
				t.Errorf("α=%d: process %d sent %d > budget %d", alpha, p, m, budget)
			}
		}
		if o.Messages > budget*60 {
			t.Errorf("α=%d: total %d exceeds global cap", alpha, o.Messages)
		}
	}
}

func TestBudgetCappedAlphaReducesMessages(t *testing.T) {
	total := func(alpha int) int64 {
		var sum int64
		for seed := uint64(0); seed < 5; seed++ {
			o, err := sim.Run(sim.Config{N: 80, F: 24, Protocol: BudgetCapped{Alpha: alpha}, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			sum += o.Messages
		}
		return sum
	}
	if m1, m8 := total(1), total(8); m8 >= m1 {
		t.Errorf("α=8 messages (%d) not below α=1 (%d)", m8, m1)
	}
}

func TestPushPullAnswersPullsWhileAsleep(t *testing.T) {
	// Whitebox: a sleeping Push-Pull process must still answer a pull.
	envs := makeEnvs(3, 0, 42)
	procs := PushPull{}.New(envs)
	p0 := procs[0].(*pushPullProc)
	// Make process 0 knowledge-complete so it sleeps.
	p0.learn(1)
	p0.learn(2)
	if !p0.Asleep() {
		t.Fatal("knowledge-complete process not asleep")
	}
	var out sim.Outbox
	outReset(&out, 0, 3)
	p0.Step(5, []sim.Message{{From: 1, To: 0, Payload: pullPayload{}}}, &out)
	if out.Len() != 1 {
		t.Fatalf("sleeping process answered %d messages, want 1", out.Len())
	}
	if !p0.Asleep() {
		t.Error("answering a pull woke the process for good")
	}
}

func TestPushPullSleepCondition(t *testing.T) {
	envs := makeEnvs(4, 0, 42)
	procs := PushPull{}.New(envs)
	p := procs[0].(*pushPullProc)
	if p.Asleep() {
		t.Fatal("fresh process asleep")
	}
	p.learn(1)
	p.markPulled(2)
	if p.Asleep() {
		t.Fatal("asleep with process 3 neither pulled nor known")
	}
	p.markPulled(3)
	if !p.Asleep() {
		t.Fatal("not asleep although every other process is pulled-or-known")
	}
	// Re-learning and re-pulling must not corrupt the counter.
	p.learn(1)
	p.learn(3)
	if p.need != 0 {
		t.Fatalf("need = %d after redundant updates, want 0", p.need)
	}
}

// outReset gives tests access to Outbox initialization without exporting
// the engine's internals: a fresh Outbox is reset by sending through a
// one-shot fake engine… simpler: replicate reset via the exported API.
func outReset(o *sim.Outbox, from sim.ProcID, n int) {
	*o = sim.NewOutbox(from, n)
}
