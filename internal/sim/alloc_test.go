package sim

// Allocation-regression tests: the zero-alloc contract of the PR 5 memory
// rewrite, pinned in tier-1 so a regression fails `go test ./...` rather
// than only the bench gate. The claim is about the *steady state*: after a
// run has warmed up — outbox staging, mailbox buffers, calendar buckets,
// scheduler heap, and payload-table slots have all reached their peak
// sizes — one engine step allocates nothing, provided the protocol hands
// Send pre-boxed payloads. testing.AllocsPerRun drives the extracted
// stepOnce directly.
//
// Skipped under -race (see race_off.go): race instrumentation allocates.

import "testing"

// pullEchoProto is the delivery-heavy counterpart to the token ring: every
// process sends `pulls` requests, one per local step, to deterministic
// pseudo-random peers, and answers each one — including while asleep. It
// keeps wake-ups, dense due sets, calendar churn, and fan-in delivery all
// active for hundreds of steps, with pre-boxed payloads and O(1) state.
type pullEchoProto struct{ pulls int }

func (pullEchoProto) Name() string { return "pull-echo" }

var (
	pullReqPayload  Payload = testPayload{kind: "pull-req"}
	pullRespPayload Payload = testPayload{kind: "pull-resp"}
)

func (pr pullEchoProto) New(envs []Env) []Process {
	return BuildEach(envs, func(env Env) Process {
		return &pullEchoProc{env: env, pulls: pr.pulls}
	})
}

type pullEchoProc struct {
	env   Env
	pulls int
}

func (p *pullEchoProc) Step(now Step, delivered []Message, out *Outbox) {
	for _, m := range delivered {
		if samePayload(m.Payload, pullReqPayload) {
			out.Send(m.From, pullRespPayload)
		}
	}
	if p.pulls > 0 && p.env.N > 1 {
		p.pulls--
		out.Send(ProcID(p.env.RNG.IntnExcept(p.env.N, int(p.env.ID))), pullReqPayload)
	}
}

func (p *pullEchoProc) Asleep() bool        { return p.pulls == 0 }
func (p *pullEchoProc) Knows(g ProcID) bool { return g == p.env.ID }

// measureSteadyStepAllocs warms an engine by `warm` active steps, then
// returns the average allocations of the next `measure` steps. It fails
// the test if the run quiesces before measurement ends — a drained run
// would trivially "allocate nothing".
func measureSteadyStepAllocs(t *testing.T, cfg Config, warm, measure int) float64 {
	t.Helper()
	e, err := newEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < warm; i++ {
		if e.quiescent() || !e.stepOnce() {
			t.Fatalf("run drained after %d warm-up steps; warm/measure budget too large", i)
		}
	}
	// AllocsPerRun calls the function runs+1 times (one untimed warm-up
	// call of its own); every call must advance a real step.
	steps := 0
	allocs := testing.AllocsPerRun(measure-1, func() {
		if e.quiescent() || !e.stepOnce() {
			return
		}
		steps++
	})
	if steps < measure {
		t.Fatalf("run drained during measurement (%d of %d steps)", steps, measure)
	}
	return allocs
}

// TestStepLoopZeroAlloc pins 0 allocs per engine step in steady state on
// the inline lane, on the two workload extremes: the sparse token ring
// (one active process, one in-flight message) and the dense pull-echo
// exchange (every process active, fan-in deliveries, sleep/wake
// transitions).
func TestStepLoopZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation assertions do not hold under -race")
	}
	cases := []struct {
		name          string
		cfg           Config
		warm, measure int
	}{
		{
			name: "ring",
			cfg:  Config{N: 256, Protocol: tokenRingProto{laps: 64}},
			// 64 laps = 16384 hops; warm two laps, measure one.
			warm: 512, measure: 256,
		},
		{
			// Workers = 4 forks the first step (every process is due) and
			// never again: one token, one due process, far below the
			// 2·Workers threshold. The steps measured here run lane 0
			// inline — no goroutine, no closure, nothing allocated.
			name: "ring-workers=4",
			cfg:  Config{N: 256, Protocol: tokenRingProto{laps: 64}, Workers: 4},
			warm: 512, measure: 256,
		},
		{
			name: "pull-echo",
			cfg:  Config{N: 512, Protocol: pullEchoProto{pulls: 3000}},
			// ~3000 pull steps per process plus the echo tail. The long
			// warm-up matters: mailbox and bucket capacities grow to the
			// maximum fan-in any process ever sees, and with random targets
			// that running maximum keeps creeping for a while.
			warm: 2000, measure: 400,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if allocs := measureSteadyStepAllocs(t, tc.cfg, tc.warm, tc.measure); allocs != 0 {
				t.Errorf("steady-state step loop: %v allocs/step, want 0", allocs)
			}
		})
	}
}

// TestOutboxSendZeroAlloc pins 0 allocs on the Outbox Send/flush cycle
// once staging storage is warm, for both the distinct-payload path and the
// memoized fan-out path.
func TestOutboxSendZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation assertions do not hold under -race")
	}
	ob := NewOutbox(0, 1024)
	fanout := func() {
		ob.reset(0, 1024)
		for to := 1; to <= 512; to++ {
			ob.Send(ProcID(to), benchPayload) // one shared payload, 512 drafts
		}
		if ob.distinct() != 1 {
			t.Fatal("fan-out of one payload staged more than one entry")
		}
	}
	alternate := func() {
		ob.reset(0, 1024)
		for to := 1; to <= 256; to++ {
			ob.Send(ProcID(to), pullReqPayload)
			ob.Send(ProcID(to+256), pullRespPayload)
		}
	}
	fanout() // grow staging before measuring
	if allocs := testing.AllocsPerRun(100, fanout); allocs != 0 {
		t.Errorf("fan-out Send cycle: %v allocs, want 0", allocs)
	}
	alternate()
	if allocs := testing.AllocsPerRun(100, alternate); allocs != 0 {
		t.Errorf("alternating Send cycle: %v allocs, want 0", allocs)
	}
}
