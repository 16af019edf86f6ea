package live_test

import (
	"reflect"
	"strings"
	"testing"

	"github.com/ugf-sim/ugf/internal/gossip"
	"github.com/ugf-sim/ugf/internal/live"
	"github.com/ugf-sim/ugf/internal/sim"
	"github.com/ugf-sim/ugf/internal/simtest"
	"github.com/ugf-sim/ugf/internal/xrand"
)

func proto(t testing.TB, name string) sim.Protocol {
	t.Helper()
	p, ok := gossip.ByName(name)
	if !ok {
		t.Fatalf("protocol %q not in registry", name)
	}
	return p
}

// TestLiveMatchesSimExactly is the oracle check at its strictest: for
// configs both runtimes cover (baseline network + link-fault plan), a
// live run over real goroutine nodes and wire frames produces the same
// Outcome as the simulator bit for bit — same TEnd, Quiescence, Messages,
// per-kind counts, everything up to simtest.Normalize (wall times and the
// sim-only scheduler heap counters, which stay zero live) — and each
// process sends as often in both, counted off the two traces.
func TestLiveMatchesSimExactly(t *testing.T) {
	protocols := []string{"push-pull", "ears", "push", "doubling", "round-robin"}
	plans := []*sim.FaultPlan{
		nil,
		{Seed: 0xFA01, Drop: 0.1, Duplicate: 0.05, Corrupt: 0.03},
	}
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		protocols = []string{"push-pull", "ears"}
		seeds = []uint64{1}
	}
	for _, name := range protocols {
		for _, plan := range plans {
			for _, seed := range seeds {
				var simRec, liveRec sim.Recorder
				simCfg := sim.Config{
					N: 48, Protocol: proto(t, name), Seed: seed,
					Faults: plan, Trace: &simRec,
				}
				want, err := sim.Run(simCfg)
				if err != nil {
					t.Fatalf("%s/faults=%v/seed=%d: sim: %v", name, plan != nil, seed, err)
				}
				liveCfg, err := live.FromSimConfig(simCfg)
				if err != nil {
					t.Fatalf("%s: FromSimConfig: %v", name, err)
				}
				liveCfg.Trace = &liveRec
				got, err := live.Run(liveCfg)
				if err != nil {
					t.Fatalf("%s/faults=%v/seed=%d: live: %v", name, plan != nil, seed, err)
				}
				if diffs := simtest.DiffOutcomes(got, want); len(diffs) != 0 {
					t.Errorf("%s/faults=%v/seed=%d: live diverges from sim:\n  %s",
						name, plan != nil, seed, strings.Join(diffs, "\n  "))
				}
				if got.Gathered != want.Gathered {
					t.Errorf("%s/faults=%v/seed=%d: Gathered: live=%v sim=%v",
						name, plan != nil, seed, got.Gathered, want.Gathered)
				}
				if g, w := sendsByProc(liveRec.Events, 48), sendsByProc(simRec.Events, 48); !reflect.DeepEqual(g, w) {
					t.Errorf("%s/faults=%v/seed=%d: per-process sends: live=%v sim=%v",
						name, plan != nil, seed, g, w)
				}
			}
		}
	}
}

// sendsByProc reads M_ρ(O) for every process off a trace: its TraceSend
// events.
func sendsByProc(events []sim.TraceEvent, n int) []int64 {
	sends := make([]int64, n)
	for _, ev := range events {
		if ev.Kind == sim.TraceSend {
			sends[ev.Proc]++
		}
	}
	return sends
}

// TestLiveDeterministic pins that a live run is a pure function of its
// Config even with every interposer injection active: identical outcomes
// (up to wall times) and identical event streams across repeated runs,
// despite real goroutine concurrency underneath.
func TestLiveDeterministic(t *testing.T) {
	run := func() (sim.Outcome, []sim.TraceEvent) {
		var rec sim.Recorder
		o, err := live.Run(live.Config{
			N: 32, F: 4, Protocol: proto(t, "push-pull"), Seed: 77,
			Faults:  &sim.FaultPlan{Seed: 9, Drop: 0.08, Duplicate: 0.04, Corrupt: 0.04},
			Delay:   &live.DelayPlan{Seed: 11, Prob: 0.2, Max: 3},
			Omit:    &live.OmitPlan{Seed: 13, Prob: 0.1},
			Crashes: live.DeriveCrashes(15, 32, 4, 6),
			Trace:   &rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		return o.StripWall(), rec.Events
	}
	o1, tr1 := run()
	o2, tr2 := run()
	if !reflect.DeepEqual(o1, o2) {
		t.Errorf("outcomes differ across identical runs:\n first  %+v\n second %+v", o1, o2)
	}
	if len(tr1) != len(tr2) {
		t.Fatalf("trace lengths differ: %d vs %d", len(tr1), len(tr2))
	}
	for i := range tr1 {
		if !reflect.DeepEqual(tr1[i], tr2[i]) {
			t.Fatalf("trace event %d differs:\n first  %+v\n second %+v", i, tr1[i], tr2[i])
		}
	}
}

// TestLiveSeedSensitivity guards against a degenerate determinism: runs
// with different seeds must not be identical.
func TestLiveSeedSensitivity(t *testing.T) {
	outs := make([]sim.Outcome, 2)
	for i, seed := range []uint64{xrand.Derive(100, 0), xrand.Derive(100, 1)} {
		o, err := live.Run(live.Config{N: 32, Protocol: proto(t, "push-pull"), Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		outs[i] = o.StripWall()
	}
	if reflect.DeepEqual(outs[0], outs[1]) {
		t.Error("different seeds produced identical outcomes")
	}
}

func TestConfigValidate(t *testing.T) {
	pp := proto(t, "push-pull")
	cases := []struct {
		name string
		cfg  live.Config
	}{
		{"no processes", live.Config{N: 0, Protocol: pp}},
		{"negative F", live.Config{N: 4, F: -1, Protocol: pp}},
		{"F too large", live.Config{N: 4, F: 4, Protocol: pp}},
		{"nil protocol", live.Config{N: 4}},
		{"negative horizon", live.Config{N: 4, Protocol: pp, Horizon: -1}},
		{"negative max events", live.Config{N: 4, Protocol: pp, MaxEvents: -1}},
		{"bad delay plan", live.Config{N: 4, Protocol: pp, Delay: &live.DelayPlan{Prob: 0.5}}},
		{"bad omit plan", live.Config{N: 4, Protocol: pp, Omit: &live.OmitPlan{Prob: 1.5}}},
		{"crashes over budget", live.Config{N: 4, F: 0, Protocol: pp, Crashes: []live.Crash{{Proc: 1, At: 1}}}},
		{"crash of unknown process", live.Config{N: 4, F: 2, Protocol: pp, Crashes: []live.Crash{{Proc: 9, At: 1}}}},
		{"crash at step 0", live.Config{N: 4, F: 2, Protocol: pp, Crashes: []live.Crash{{Proc: 1, At: 0}}}},
		{"double crash", live.Config{N: 4, F: 2, Protocol: pp, Crashes: []live.Crash{{Proc: 1, At: 1}, {Proc: 1, At: 2}}}},
	}
	for _, tc := range cases {
		if _, err := live.Run(tc.cfg); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

func TestFromSimConfigRejects(t *testing.T) {
	pp := proto(t, "push-pull")
	base := sim.Config{N: 16, Protocol: pp, Seed: 1}
	cases := []struct {
		name string
		mut  func(*sim.Config)
		want string
	}{
		{"adversary", func(c *sim.Config) { c.Adversary = stubAdversary{} }, "adversary"},
		{"sampling", func(c *sim.Config) { c.SampleEvery = 4 }, "sampling"},
		{"wall watchdog", func(c *sim.Config) { c.MaxWall = 1 }, "wall-clock"},
		{"cancel channel", func(c *sim.Config) { c.Cancel = make(chan struct{}) }, "wall-clock"},
		{"workers", func(c *sim.Config) { c.Workers = 4 }, "Workers"},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		_, err := live.FromSimConfig(cfg)
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	// The supported subset projects through field by field.
	cfg := base
	cfg.F = 3
	cfg.Horizon = 500
	cfg.MaxEvents = 10000
	cfg.StallWindow = 64
	cfg.Faults = &sim.FaultPlan{Seed: 2, Drop: 0.1}
	got, err := live.FromSimConfig(cfg)
	if err != nil {
		t.Fatalf("supported config rejected: %v", err)
	}
	want := live.Config{
		N: 16, F: 3, Protocol: pp, Seed: 1,
		Horizon: 500, MaxEvents: 10000, StallWindow: 64,
		Faults: cfg.Faults,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("projection mismatch:\n got  %+v\n want %+v", got, want)
	}
}

type stubAdversary struct{}

func (stubAdversary) Name() string                                       { return "stub" }
func (stubAdversary) New(n, f int, rng *xrand.RNG) sim.AdversaryInstance { return nil }

func TestDeriveCrashes(t *testing.T) {
	const n, f = 40, 6
	const window = sim.Step(10)
	crashes := live.DeriveCrashes(42, n, f, window)
	if len(crashes) == 0 || len(crashes) > f {
		t.Fatalf("got %d crashes, want 1..%d", len(crashes), f)
	}
	seen := make(map[sim.ProcID]bool)
	for _, c := range crashes {
		if c.Proc < 0 || int(c.Proc) >= n {
			t.Errorf("victim %d out of range", c.Proc)
		}
		if seen[c.Proc] {
			t.Errorf("victim %d crashes twice", c.Proc)
		}
		seen[c.Proc] = true
		if c.At < 1 || c.At > window {
			t.Errorf("crash of %d at step %d outside [1, %d]", c.Proc, c.At, window)
		}
	}
	if !reflect.DeepEqual(crashes, live.DeriveCrashes(42, n, f, window)) {
		t.Error("DeriveCrashes is not deterministic")
	}
	if len(live.DeriveCrashes(42, n, 0, window)) != 0 {
		t.Error("f=0 returned crashes")
	}
}
