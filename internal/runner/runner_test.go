package runner

import (
	"context"
	"reflect"
	"testing"

	"github.com/ugf-sim/ugf/internal/gossip"
	"github.com/ugf-sim/ugf/internal/sim"
)

func specs() []Spec {
	return []Spec{
		{Name: "pp", Base: sim.Config{N: 12, F: 3, Protocol: gossip.PushPull{}}, Runs: 6, BaseSeed: 1},
		{Name: "rr", Base: sim.Config{N: 9, F: 0, Protocol: gossip.RoundRobin{}}, Runs: 4, BaseSeed: 2},
	}
}

func TestExecuteRunsEverything(t *testing.T) {
	results, err := ExecuteContext(context.Background(), specs(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	if len(results[0].Outcomes) != 6 || len(results[1].Outcomes) != 4 {
		t.Fatalf("wrong outcome counts: %d, %d", len(results[0].Outcomes), len(results[1].Outcomes))
	}
	for _, res := range results {
		for i, o := range res.Outcomes {
			if o.N == 0 {
				t.Errorf("%s run %d: zero outcome", res.Spec.Name, i)
			}
		}
	}
}

// stripWall zeroes the non-deterministic wall times of every outcome so
// result sets can be compared across worker counts and reruns.
func stripWall(rs []Result) []Result {
	for i := range rs {
		for j := range rs[i].Outcomes {
			rs[i].Outcomes[j] = rs[i].Outcomes[j].StripWall()
		}
	}
	return rs
}

func TestExecuteDeterministicAcrossWorkerCounts(t *testing.T) {
	a, err := ExecuteContext(context.Background(), specs(), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExecuteContext(context.Background(), specs(), Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripWall(a), stripWall(b)) {
		t.Fatal("worker count changed outcomes")
	}
}

func TestExecuteSeedsDiffer(t *testing.T) {
	results, err := ExecuteContext(context.Background(), specs()[:1], Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, o := range results[0].Outcomes {
		if seen[o.Seed] {
			t.Fatalf("duplicate seed %d", o.Seed)
		}
		seen[o.Seed] = true
	}
}

func TestExecuteConfigError(t *testing.T) {
	bad := []Spec{{Name: "bad", Base: sim.Config{N: 0, Protocol: gossip.PushPull{}}, Runs: 2, BaseSeed: 1}}
	if _, err := ExecuteContext(context.Background(), bad, Options{Workers: 2}); err == nil {
		t.Fatal("invalid config not reported")
	}
	zero := []Spec{{Name: "zero", Base: sim.Config{N: 5, Protocol: gossip.PushPull{}}, Runs: 0}}
	if _, err := ExecuteContext(context.Background(), zero, Options{Workers: 2}); err == nil {
		t.Fatal("zero-run spec not rejected")
	}
}

func TestExtractors(t *testing.T) {
	outs := []sim.Outcome{
		{Time: 1, Messages: 10, Strategy: "1", Gathered: true},
		{Time: 2, Messages: 20, Strategy: "2.1.0", Gathered: false, HorizonHit: true},
		{Time: 3, Messages: 30, Strategy: "1", Gathered: true},
	}
	if got := Times(outs); !reflect.DeepEqual(got, []float64{1, 2, 3}) {
		t.Errorf("Times = %v", got)
	}
	if got := Messages(outs); !reflect.DeepEqual(got, []float64{10, 20, 30}) {
		t.Errorf("Messages = %v", got)
	}
	if got := FilterStrategy(outs, "1"); len(got) != 2 {
		t.Errorf("FilterStrategy kept %d", len(got))
	}
	if got := GatheredRate(outs); got < 0.66 || got > 0.67 {
		t.Errorf("GatheredRate = %v", got)
	}
	if got := CutoffRate(outs); got < 0.33 || got > 0.34 {
		t.Errorf("CutoffRate = %v", got)
	}
	if GatheredRate(nil) != 0 || CutoffRate(nil) != 0 {
		t.Error("empty-slice rates must be 0")
	}
}

// TestFoldDedupMatchesFoldingAlone is the differential test of Fold's
// within-batch dedup: a batch holding series that share (Base, BaseSeed)
// under different names and run counts folds exactly as folding each spec
// alone — outcomes, FailedOutcome placeholders, Errors and Flaky
// re-addressed to each series — while the dispatcher sees every distinct
// run once.
func TestFoldDedupMatchesFoldingAlone(t *testing.T) {
	x := sim.Config{N: 12, F: 3, Protocol: gossip.PushPull{}}
	y := sim.Config{N: 9, F: 0, Protocol: gossip.RoundRobin{}}
	batch := []Spec{
		{Name: "a", Base: x, Runs: 6, BaseSeed: 1},
		{Name: "b", Base: x, Runs: 9, BaseSeed: 1}, // runs 0–5 are a's
		{Name: "c", Base: y, Runs: 4, BaseSeed: 1},
		{Name: "d", Base: x, Runs: 3, BaseSeed: 1}, // all a's
		{Name: "e", Base: x, Runs: 4, BaseSeed: 2}, // another seed: distinct
	}
	// fake computes a run as a pure function of its configuration and
	// addresses incidents its own way, as the sweep service does: every
	// fifth seed fails deterministically, the next one is recovered by a
	// retry.
	fake := func(specs []Spec, seen map[runKey]int) Dispatch {
		return func(_ context.Context, jobs []Job, done Done) error {
			for i, j := range jobs {
				s := specs[j.Series]
				cfg := s.Config(j.Run)
				seen[runKey{Fingerprint(s), j.Run}]++
				o := sim.Outcome{N: cfg.N, F: cfg.F, Seed: cfg.Seed, Time: float64(cfg.Seed % 97)}
				switch cfg.Seed % 5 {
				case 0:
					done(i, nil, &RunError{Spec: "lease", Panic: "boom", Deterministic: true}, false)
				case 1:
					done(i, &o, &RunError{Spec: "lease", Panic: "hiccup"}, false)
				default:
					done(i, &o, nil, false)
				}
			}
			return nil
		}
	}

	var want []Result
	for _, s := range batch {
		res, err := Fold(context.Background(), []Spec{s}, Options{}, fake([]Spec{s}, map[runKey]int{}))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res...)
	}
	seen := map[runKey]int{}
	var final RunUpdate
	got, err := Fold(context.Background(), batch, Options{OnRun: func(u RunUpdate) {
		if u.Done == u.Total {
			final = u
		}
	}}, fake(batch, seen))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("batch fold differs from folding each spec alone:\n got %+v\nwant %+v", got, want)
	}
	if len(seen) != 17 {
		t.Errorf("dispatched %d distinct runs, want 17", len(seen))
	}
	for key, n := range seen {
		if n != 1 {
			t.Errorf("run %v dispatched %d times", key, n)
		}
	}
	if final.Done != 26 || final.Journaled != 9 {
		t.Errorf("final update %+v, want Done 26 with 9 served", final)
	}
	errs, flaky := 0, 0
	for _, res := range got {
		errs, flaky = errs+len(res.Errors), flaky+len(res.Flaky)
	}
	if errs == 0 || flaky == 0 {
		t.Fatalf("fake produced %d errors and %d flaky runs; the test needs both", errs, flaky)
	}
}
