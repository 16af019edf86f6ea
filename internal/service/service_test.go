package service

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/ugf-sim/ugf/internal/core"
	"github.com/ugf-sim/ugf/internal/gossip"
	"github.com/ugf-sim/ugf/internal/runner"
	"github.com/ugf-sim/ugf/internal/sim"
	"github.com/ugf-sim/ugf/internal/spec"
)

// testSpecs is a small registry-typed grid: 2 series × 5 runs.
func testSpecs() []runner.Spec {
	return []runner.Spec{
		{Name: "push-pull/none", Base: sim.Config{N: 16, F: 2, Protocol: gossip.PushPull{}}, Runs: 5, BaseSeed: 11},
		{Name: "ears/ugf", Base: sim.Config{N: 12, F: 3, Protocol: gossip.EARS{}, Adversary: core.UGF{FixedK: 1, FixedL: 1}}, Runs: 5, BaseSeed: 12},
	}
}

// startWorkers runs n in-process workers against b until the returned
// stop function is called.
func startWorkers(t *testing.T, b Backend, n int) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			RunWorker(ctx, b, WorkerOptions{Poll: 50 * time.Millisecond})
		}()
	}
	return func() {
		cancel()
		wg.Wait()
	}
}

// stripWalls projects results onto their deterministic content: every
// outcome field except Stats.Wall is a pure function of (Config, Seed),
// so this is the equality under which "byte-identical artifacts" holds.
func stripWalls(results []runner.Result) []runner.Result {
	out := make([]runner.Result, len(results))
	for i, r := range results {
		out[i] = r
		out[i].Outcomes = make([]sim.Outcome, len(r.Outcomes))
		for j, o := range r.Outcomes {
			out[i].Outcomes[j] = o.StripWall()
		}
	}
	return out
}

// TestCoordinatorWorkersMatchSerial: the same batch executed through a
// coordinator with two in-process workers returns results deeply equal to
// the local pool's — outcomes, error sets, order (modulo wall times, the
// one host-dependent field). Byte-identical downstream artifacts follow,
// because the CSV writers are deterministic functions of these results.
// The second input attaches a journal on both sides and then resumes both
// from it: the two dispatchers share one fold, so results and the last
// OnRun update must agree cold and resumed.
func TestCoordinatorWorkersMatchSerial(t *testing.T) {
	for _, journaled := range []bool{false, true} {
		t.Run(fmt.Sprintf("journal=%v", journaled), func(t *testing.T) {
			coord := NewCoordinator(Options{})
			stop := startWorkers(t, coord, 2)
			defer stop()
			// The last series repeats three runs of the first under another
			// name: the batch serves them instead of computing them again.
			specs := append(testSpecs(), runner.Spec{Name: "push-pull/none again", Base: testSpecs()[0].Base, Runs: 3, BaseSeed: 11})
			sides := map[string]func(runner.Options) ([]runner.Result, error){
				"serial": func(opts runner.Options) ([]runner.Result, error) {
					opts.Workers = 2
					return runner.ExecuteContext(context.Background(), specs, opts)
				},
				"distributed": func(opts runner.Options) ([]runner.Result, error) {
					return ExecuteSpecs(context.Background(), coord, specs, opts)
				},
			}
			passes := []bool{false} // resume?
			if journaled {
				passes = []bool{false, true}
			}
			dir := t.TempDir()
			for _, resume := range passes {
				results := map[string][]runner.Result{}
				last := map[string]runner.RunUpdate{}
				for name, exec := range sides {
					var mu sync.Mutex
					var final runner.RunUpdate
					opts := runner.Options{OnRun: func(u runner.RunUpdate) {
						mu.Lock()
						defer mu.Unlock()
						if u.Done == u.Total {
							final = u
						}
					}}
					if journaled {
						j, err := runner.OpenJournal(filepath.Join(dir, name+".jsonl"), resume)
						if err != nil {
							t.Fatal(err)
						}
						defer j.Close()
						opts.Journal = j
					}
					res, err := exec(opts)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					results[name] = stripWalls(res)
					last[name] = runner.RunUpdate{Done: final.Done, Failed: final.Failed, Flaky: final.Flaky, Journaled: final.Journaled}
				}
				if !reflect.DeepEqual(results["serial"], results["distributed"]) {
					t.Errorf("resume=%v: distributed execution changed the results", resume)
				}
				want := runner.RunUpdate{Done: 13, Journaled: 3}
				if resume {
					want.Journaled = 13
				}
				if last["serial"] != want || last["distributed"] != want {
					t.Errorf("resume=%v: last OnRun update serial %+v, distributed %+v, want %+v",
						resume, last["serial"], last["distributed"], want)
				}
			}
			if ct := coord.Counters(); ct.Computed != 10 {
				t.Errorf("computed %d runs, want 10", ct.Computed)
			}
		})
	}
}

// TestResubmitServesEntirelyFromCache: a second submission of an already
// computed sweep — to a fresh coordinator sharing only the cache
// directory, as after a coordinator crash — completes instantly with
// zero recomputed runs and identical results.
func TestResubmitServesEntirelyFromCache(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	cacheA, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	coordA := NewCoordinator(Options{Cache: cacheA})
	stop := startWorkers(t, coordA, 2)
	first, err := ExecuteSpecs(context.Background(), coordA, testSpecs(), runner.Options{})
	stop()
	if err != nil {
		t.Fatal(err)
	}

	// "Kill" coordinator A: build a fresh one over the same directory and
	// resubmit with no workers at all — the cache must answer everything.
	cacheB, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	coordB := NewCoordinator(Options{Cache: cacheB})
	second, err := ExecuteSpecs(context.Background(), coordB, testSpecs(), runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ct := coordB.Counters()
	if ct.Computed != 0 || ct.Queued != 0 || ct.Leased != 0 {
		t.Errorf("resubmit recomputed work: %+v", ct)
	}
	if ct.CacheHits != 10 {
		t.Errorf("resubmit served %d runs from cache, want 10", ct.CacheHits)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("cache round trip changed the results")
	}
	// Byte-level check on the run records themselves.
	fj, _ := json.Marshal(first)
	sj, _ := json.Marshal(second)
	if string(fj) != string(sj) {
		t.Error("cache round trip changed the serialized results")
	}
}

// TestInFlightDedup: two sweeps over the same grid submitted before any
// worker runs share every task — the second sweep's runs are all dedup
// hits, each distinct run is computed once, and both sweeps complete.
func TestInFlightDedup(t *testing.T) {
	coord := NewCoordinator(Options{})
	grid := []spec.Spec{}
	for seed := uint64(0); seed < 8; seed++ {
		grid = append(grid, spec.Spec{Protocol: "push-pull", N: 12, F: 1, Seed: seed})
	}
	a, err := coord.Submit(SweepRequest{Name: "a", Specs: grid})
	if err != nil {
		t.Fatal(err)
	}
	b, err := coord.Submit(SweepRequest{Name: "b", Specs: grid})
	if err != nil {
		t.Fatal(err)
	}
	if a.DedupHits != 0 || b.DedupHits != len(grid) {
		t.Errorf("dedup hits: first %d, second %d; want 0 and %d", a.DedupHits, b.DedupHits, len(grid))
	}
	stop := startWorkers(t, coord, 2)
	defer stop()
	for _, id := range []string{a.ID, b.ID} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		n := 0
		if err := coord.Stream(ctx, id, 0, func(ResultEvent) error { n++; return nil }); err != nil {
			t.Fatalf("sweep %s: %v", id, err)
		}
		cancel()
		if n != len(grid) {
			t.Errorf("sweep %s delivered %d events, want %d", id, n, len(grid))
		}
	}
	if ct := coord.Counters(); ct.Computed != len(grid) {
		t.Errorf("computed %d distinct runs, want %d", ct.Computed, len(grid))
	}
}

// TestRunsExpansionMatchesLocalSeeds: SweepRequest.Runs derives the same
// seed set runner.ExecuteContext derives, so the two execution paths
// share cache entries.
func TestRunsExpansionMatchesLocalSeeds(t *testing.T) {
	coord := NewCoordinator(Options{})
	stop := startWorkers(t, coord, 2)
	defer stop()

	// Run locally first, through the executor (which derives seeds the
	// runner's way), populating the cache...
	if _, err := ExecuteSpecs(context.Background(), coord, []runner.Spec{
		{Name: "s", Base: sim.Config{N: 10, F: 1, Protocol: gossip.PushPull{}}, Runs: 4, BaseSeed: 77},
	}, runner.Options{}); err != nil {
		t.Fatal(err)
	}
	// ...then submit the same series via the HTTP-style Runs expansion:
	// every run must be a cache hit.
	resp, err := coord.Submit(SweepRequest{
		Specs: []spec.Spec{{Protocol: "push-pull", N: 10, F: 1, Seed: 77}},
		Runs:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.CacheHits != 4 {
		t.Errorf("Runs expansion hit %d/4 cached runs; seed derivation diverged", resp.CacheHits)
	}
}

// TestLeaseExpiryRequeuesThenExhausts: a leased run whose worker vanishes
// is requeued until MaxAttempts, then failed with an environmental (non-
// deterministic, uncached) error.
func TestLeaseExpiryRequeuesThenExhausts(t *testing.T) {
	coord := NewCoordinator(Options{LeaseTTL: time.Minute, MaxAttempts: 2})
	now := time.Unix(1000, 0)
	coord.now = func() time.Time { return now }
	resp, err := coord.Submit(SweepRequest{Specs: []spec.Spec{{Protocol: "push-pull", N: 8, F: 1, Seed: 1}}})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	l1, err := coord.Acquire(ctx)
	if err != nil || l1 == nil {
		t.Fatalf("first acquire: %v, %v", l1, err)
	}
	if l1.Attempt != 0 {
		t.Errorf("first lease attempt = %d, want 0", l1.Attempt)
	}
	now = now.Add(2 * time.Minute) // worker died; TTL expired
	l2, err := coord.Acquire(ctx)
	if err != nil || l2 == nil {
		t.Fatalf("second acquire: %v, %v", l2, err)
	}
	if l2.Fingerprint != l1.Fingerprint || l2.Attempt != 1 {
		t.Errorf("requeue handed out %+v, want same run at attempt 1", l2)
	}
	// Completing with the stale first lease is a no-op, not an error.
	if err := coord.Complete(l1.ID, CompleteRequest{Outcome: &sim.Outcome{}}); err != nil {
		t.Errorf("stale complete: %v", err)
	}
	now = now.Add(2 * time.Minute) // second worker died too: attempts exhausted
	pollCtx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	l3, err := coord.Acquire(pollCtx)
	cancel()
	if err != nil || l3 != nil {
		t.Fatalf("third acquire after exhaustion: %+v, %v", l3, err)
	}
	st, ok := coord.Status(resp.ID)
	if !ok || !st.Finished || st.Failed != 1 {
		t.Errorf("sweep after exhaustion: %+v", st)
	}
	var evs []ResultEvent
	coord.Stream(ctx, resp.ID, 0, func(ev ResultEvent) error { evs = append(evs, ev); return nil })
	if len(evs) != 1 || evs[0].Err == nil || evs[0].Err.Deterministic {
		t.Fatalf("events after exhaustion: %+v", evs)
	}
	// Environmental failures are not cached: a fresh submission queues the
	// run again instead of replaying the failure.
	if _, ok := coord.Run(l1.Fingerprint); ok {
		t.Error("environmental failure was cached")
	}
}

// TestDeterministicFailureFlow: a deterministic failure reported by a
// worker finishes the sweep, enters the cache, and resubmission serves
// the failure without recomputation.
func TestDeterministicFailureFlow(t *testing.T) {
	coord := NewCoordinator(Options{})
	resp, err := coord.Submit(SweepRequest{Specs: []spec.Spec{{Protocol: "push-pull", N: 8, F: 1, Seed: 5}}})
	if err != nil {
		t.Fatal(err)
	}
	lease, err := coord.Acquire(context.Background())
	if err != nil || lease == nil {
		t.Fatal(err)
	}
	re := &runner.RunError{Spec: lease.Fingerprint, Seed: lease.Spec.Seed, Panic: "boom", Deterministic: true}
	if err := coord.Complete(lease.ID, CompleteRequest{Err: re}); err != nil {
		t.Fatal(err)
	}
	st, _ := coord.Status(resp.ID)
	if !st.Finished || st.Failed != 1 {
		t.Errorf("status after deterministic failure: %+v", st)
	}
	resp2, err := coord.Submit(SweepRequest{Specs: []spec.Spec{{Protocol: "push-pull", N: 8, F: 1, Seed: 5}}})
	if err != nil {
		t.Fatal(err)
	}
	if resp2.CacheHits != 1 {
		t.Errorf("deterministic failure not served from cache: %+v", resp2)
	}
}
