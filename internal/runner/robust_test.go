package runner

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/ugf-sim/ugf/internal/gossip"
	"github.com/ugf-sim/ugf/internal/sim"
	"github.com/ugf-sim/ugf/internal/xrand"
)

// panicAdv panics while being constructed for the run whose adversary
// stream opens with Trigger — letting a test detonate exactly one chosen
// run of a batch, deterministically.
type panicAdv struct{ Trigger uint64 }

func (panicAdv) Name() string { return "panic-adv" }
func (p panicAdv) New(n, f int, rng *xrand.RNG) sim.AdversaryInstance {
	if rng.Uint64() == p.Trigger {
		panic("adversary exploded")
	}
	return benignAdv{}
}

type benignAdv struct{}

func (benignAdv) Init(sim.View, sim.Control)                                {}
func (benignAdv) Observe(sim.Step, []sim.SendRecord, sim.View, sim.Control) {}
func (benignAdv) Label() string                                             { return "" }

// bombProto panics at every run's first local step.
type bombProto struct{}

func (bombProto) Name() string { return "bomb" }
func (bombProto) New(envs []sim.Env) []sim.Process {
	return sim.BuildEach(envs, func(env sim.Env) sim.Process { return bombProc{} })
}

type bombProc struct{}

func (bombProc) Step(sim.Step, []sim.Message, *sim.Outbox) { panic("protocol exploded") }
func (bombProc) Asleep() bool                              { return false }
func (bombProc) Knows(sim.ProcID) bool                     { return false }

// countProto counts its constructions — a probe for how many runs actually
// executed (journal hits and short-circuited jobs never construct it).
type countProto struct{ calls *atomic.Int64 }

func (countProto) Name() string { return "count" }
func (c countProto) New(envs []sim.Env) []sim.Process {
	c.calls.Add(1)
	return gossip.PushPull{}.New(envs)
}

// flakyProto panics on its first construction ever, then behaves — the
// environmental-failure shape the same-seed retry is meant to recover.
type flakyProto struct{ armed *atomic.Bool }

func (flakyProto) Name() string { return "flaky" }
func (f flakyProto) New(envs []sim.Env) []sim.Process {
	if f.armed.CompareAndSwap(true, false) {
		panic("cosmic ray")
	}
	return gossip.PushPull{}.New(envs)
}

// TestPanicIsolatedToOneRun: one detonating run in a 50-run spec yields 49
// outcomes plus one deterministic RunError — serial and parallel — and the
// batch completes.
func TestPanicIsolatedToOneRun(t *testing.T) {
	const runs, badRun = 50, 7
	var base uint64 = 99
	badSeed := xrand.Derive(base, badRun)
	spec := Spec{
		Name: "panicky",
		Base: sim.Config{
			N: 10, F: 2,
			Protocol:  gossip.PushPull{},
			Adversary: panicAdv{Trigger: sim.AdversaryRNG(badSeed).Uint64()},
		},
		Runs:     runs,
		BaseSeed: base,
	}
	check := func(t *testing.T, res Result) {
		if len(res.Errors) != 1 {
			t.Fatalf("got %d RunErrors, want 1: %v", len(res.Errors), res.Errors)
		}
		re := res.Errors[0]
		if re.Run != badRun || re.Seed != badSeed || !re.Deterministic {
			t.Errorf("RunError = %+v, want run %d seed %d deterministic", re, badRun, badSeed)
		}
		if !strings.Contains(re.Panic, "adversary exploded") || re.Stack == "" {
			t.Errorf("RunError missing panic/stack: %+v", re)
		}
		if !res.Outcomes[badRun].HorizonHit {
			t.Error("failed slot must carry a HorizonHit placeholder")
		}
		if got := len(res.Kept()); got != runs-1 {
			t.Errorf("Kept() = %d outcomes, want %d", got, runs-1)
		}
		for i, o := range res.Outcomes {
			if i != badRun && (o.N == 0 || o.HorizonHit) {
				t.Errorf("run %d: unexpected outcome %+v", i, o)
			}
		}
	}
	var done atomic.Int64
	serial, err := ExecuteContext(context.Background(), []Spec{spec}, Options{
		Workers: 1,
		OnRun:   func(u RunUpdate) { done.Store(int64(u.Done)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	check(t, serial[0])
	if done.Load() != runs {
		t.Errorf("progress reached %d, want %d (failed runs count as done)", done.Load(), runs)
	}
	parallel, err := ExecuteContext(context.Background(), []Spec{spec}, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	check(t, parallel[0])
	stripWall(serial)
	stripWall(parallel)
	if !reflect.DeepEqual(serial[0].Outcomes, parallel[0].Outcomes) {
		t.Error("worker count changed the surviving outcomes")
	}
}

// TestEveryRunPanicking: a protocol that always detonates fails every run
// individually without crashing the process or aborting the batch — and
// the recorded stack names the protocol's Step whether the run stepped on
// its own goroutine or forked the step over shard lanes (Shards > 1, i.e.
// Base.Workers, with N large enough that the first step does fork).
func TestEveryRunPanicking(t *testing.T) {
	for _, tc := range []struct {
		name      string
		n, shards int
	}{
		{"serial", 5, 0},
		{"shards=4", 16, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := Spec{Name: "bombs", Base: sim.Config{N: tc.n, Workers: tc.shards, Protocol: bombProto{}}, Runs: 6, BaseSeed: 3}
			results, err := ExecuteContext(context.Background(), []Spec{spec}, Options{Workers: 3})
			if err != nil {
				t.Fatal(err)
			}
			res := results[0]
			if len(res.Errors) != 6 || len(res.Kept()) != 0 || res.Failed() != 6 {
				t.Fatalf("got %d errors, %d kept", len(res.Errors), len(res.Kept()))
			}
			for i, re := range res.Errors {
				if re.Run != i || !re.Deterministic {
					t.Errorf("Errors[%d] = %+v, want run %d (errors sorted by run)", i, re, i)
				}
				if !strings.Contains(re.Panic, "protocol exploded") {
					t.Errorf("Errors[%d].Panic = %q, want the protocol's panic value in it", i, re.Panic)
				}
				if !strings.Contains(re.Stack, "bombProc.Step") {
					t.Errorf("Errors[%d].Stack does not name the protocol's Step:\n%s", i, re.Stack)
				}
			}
		})
	}
}

// TestSameSeedRetryRecoversEnvironmentalFailure: a one-off panic is healed
// by the retry; the outcome is kept and the incident lands in Flaky — once,
// in the batch that saw it: the journal records the clean outcome, so a
// resumed batch serves the run without replaying the incident.
func TestSameSeedRetryRecoversEnvironmentalFailure(t *testing.T) {
	var armed atomic.Bool
	armed.Store(true)
	spec := Spec{Name: "flaky", Base: sim.Config{N: 8, Protocol: flakyProto{armed: &armed}}, Runs: 3, BaseSeed: 5}
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	results, err := ExecuteContext(context.Background(), []Spec{spec}, Options{Workers: 1, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	res := results[0]
	if len(res.Errors) != 0 {
		t.Fatalf("environmental failure recorded as deterministic: %v", res.Errors)
	}
	if len(res.Flaky) != 1 || res.Flaky[0].Run != 0 || res.Flaky[0].Deterministic {
		t.Fatalf("Flaky = %+v, want one environmental entry for run 0", res.Flaky)
	}
	for i, o := range res.Outcomes {
		if o.N == 0 || o.HorizonHit {
			t.Errorf("run %d missing its recovered outcome: %+v", i, o)
		}
	}

	j, err = OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var last RunUpdate
	resumed, err := ExecuteContext(context.Background(), []Spec{spec}, Options{Workers: 1, Journal: j,
		OnRun: func(u RunUpdate) { last = u }})
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed[0].Flaky) != 0 || last.Flaky != 0 || last.Journaled != 3 {
		t.Errorf("resume replayed the incident: Flaky = %+v, last update %+v", resumed[0].Flaky, last)
	}
	if !reflect.DeepEqual(resumed[0].Outcomes, res.Outcomes) {
		t.Error("resume changed the outcomes")
	}
}

// TestJournalWriteFailuresAreCounted: a journal that cannot write — here
// its file is closed underneath it, as a full disk would fail every
// append — never fails the batch, but keeps the first error and a count
// for ugfbench to report instead of degrading to recomputation silently.
func TestJournalWriteFailuresAreCounted(t *testing.T) {
	j, err := OpenJournal(filepath.Join(t.TempDir(), "runs.jsonl"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if n, err := j.WriteErrors(); n != 0 || err != nil {
		t.Fatalf("fresh journal reports %d write errors (%v)", n, err)
	}
	if err := j.f.Close(); err != nil {
		t.Fatal(err)
	}
	results, err := ExecuteContext(context.Background(), specs(), Options{Workers: 2, Journal: j})
	if err != nil {
		t.Fatalf("a failing journal failed the batch: %v", err)
	}
	for _, res := range results {
		for i, o := range res.Outcomes {
			if o.N == 0 {
				t.Errorf("%s run %d: zero outcome", res.Spec.Name, i)
			}
		}
	}
	n, werr := j.WriteErrors()
	if n != 10 || werr == nil || !strings.Contains(werr.Error(), "closed") {
		t.Errorf("WriteErrors = %d, %v; want all 10 runs and the file's error", n, werr)
	}
}

// TestShortCircuitAfterBatchFailure: once a configuration error fails the
// batch, queued jobs are drained without executing (satellite fix: workers
// used to keep running every remaining run at full cost).
func TestShortCircuitAfterBatchFailure(t *testing.T) {
	var calls atomic.Int64
	specs := []Spec{
		{Name: "bad", Base: sim.Config{N: 0, Protocol: gossip.PushPull{}}, Runs: 1, BaseSeed: 1},
		{Name: "big", Base: sim.Config{N: 6, Protocol: countProto{calls: &calls}}, Runs: 200, BaseSeed: 2},
	}
	_, err := ExecuteContext(context.Background(), specs, Options{Workers: 1})
	if err == nil {
		t.Fatal("invalid config not reported")
	}
	if got := calls.Load(); got != 0 {
		t.Errorf("%d runs executed after the batch had failed, want 0", got)
	}
}

// TestCancelledContextStopsBatch: a cancelled context yields partial
// results plus the context's error, without executing the queued runs.
func TestCancelledContextStopsBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	specs := []Spec{{Name: "c", Base: sim.Config{N: 6, Protocol: countProto{calls: &calls}}, Runs: 50, BaseSeed: 4}}
	results, err := ExecuteContext(ctx, specs, Options{Workers: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(results) != 1 {
		t.Fatalf("partial results missing: %v", results)
	}
	if got := calls.Load(); got != 0 {
		t.Errorf("%d runs executed under a cancelled context, want 0", got)
	}
}
