package service

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/ugf-sim/ugf/internal/gossip"
	"github.com/ugf-sim/ugf/internal/runner"
	"github.com/ugf-sim/ugf/internal/sim"
	"github.com/ugf-sim/ugf/internal/simtest"
	"github.com/ugf-sim/ugf/internal/spec"
)

// flakyIncident is what a worker reports beside the outcome of a run whose
// first attempt panicked and whose same-seed retry completed.
func flakyIncident(fp string) *runner.RunError {
	return &runner.RunError{Spec: fp, Panic: "cosmic ray"}
}

// TestRecoveredRunIsFlakyOnceAtTheCoordinator: a lease completed with an
// outcome and an environmental RunError reports the incident to the sweep
// that waited on the run, and caches the clean outcome — a resubmission is
// a plain cache hit, not the incident replayed from some earlier process.
func TestRecoveredRunIsFlakyOnceAtTheCoordinator(t *testing.T) {
	coord := NewCoordinator(Options{})
	grid := []spec.Spec{{Protocol: "push-pull", N: 8, F: 1, Seed: 3}}
	events := func(id string) []ResultEvent {
		var evs []ResultEvent
		if err := coord.Stream(context.Background(), id, 0, func(ev ResultEvent) error {
			evs = append(evs, ev)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return evs
	}

	first, err := coord.Submit(SweepRequest{Specs: grid})
	if err != nil {
		t.Fatal(err)
	}
	lease, err := coord.Acquire(context.Background())
	if err != nil || lease == nil {
		t.Fatalf("acquire: %v, %v", lease, err)
	}
	outcome := &sim.Outcome{Protocol: "push-pull", Adversary: "none", N: 8, F: 1, Seed: 3, Gathered: true}
	if err := coord.Complete(lease.ID, CompleteRequest{Outcome: outcome, Err: flakyIncident(lease.Fingerprint)}); err != nil {
		t.Fatal(err)
	}
	if evs := events(first.ID); len(evs) != 1 || evs[0].Err == nil || evs[0].Outcome == nil || evs[0].Cached {
		t.Fatalf("the sweep that saw the incident got %+v, want the outcome with its RunError", evs)
	}

	second, err := coord.Submit(SweepRequest{Specs: grid})
	if err != nil {
		t.Fatal(err)
	}
	evs := events(second.ID)
	if len(evs) != 1 || !evs[0].Cached || !reflect.DeepEqual(evs[0].Outcome, outcome) {
		t.Fatalf("resubmit events %+v, want the cached outcome", evs)
	}
	if evs[0].Err != nil {
		t.Errorf("cache hit replays the old incident: %+v", evs[0].Err)
	}
}

// replayBackend is a SweepBackend that answers every sweep from a fixed
// event per run; it stands in for a coordinator whose worker recovered
// every run by a retry (cached false) or whose cache — written by a
// coordinator that still stored incidents — serves them back (cached true).
type replayBackend struct {
	cached bool
	grid   []spec.Spec
}

func (b *replayBackend) Submit(req SweepRequest) (SubmitResponse, error) {
	b.grid = req.Specs
	return SubmitResponse{ID: "s1", Total: len(req.Specs)}, nil
}

func (b *replayBackend) Stream(ctx context.Context, id string, from int, fn func(ResultEvent) error) error {
	for i, sp := range b.grid {
		fp := sp.Fingerprint()
		o := sim.Outcome{Protocol: sp.Protocol, Adversary: "none", N: sp.N, F: sp.F, Seed: sp.Seed, Gathered: true}
		if err := fn(ResultEvent{Index: i, Fingerprint: fp, Spec: sp, Outcome: &o, Err: flakyIncident(fp), Cached: b.cached}); err != nil {
			return err
		}
	}
	return nil
}

// TestRecoveredRunIsFlakyOnceInTheFold: the fold reports a recovered run in
// Flaky for the batch that computed it, re-addressed to its series — and
// for no batch a store served it to: not the coordinator's cache, not the
// journal of the first batch resumed.
func TestRecoveredRunIsFlakyOnceInTheFold(t *testing.T) {
	specs := []runner.Spec{{Name: "pp", Base: sim.Config{N: 8, F: 1, Protocol: gossip.PushPull{}}, Runs: 3, BaseSeed: 7}}
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	execute := func(be SweepBackend, resume bool) (runner.Result, runner.RunUpdate) {
		t.Helper()
		j, err := runner.OpenJournal(path, resume)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		var last runner.RunUpdate
		res, err := ExecuteSpecs(context.Background(), be, specs, runner.Options{Journal: j,
			OnRun: func(u runner.RunUpdate) { last = u }})
		if err != nil {
			t.Fatal(err)
		}
		return res[0], last
	}

	computed, last := execute(&replayBackend{}, false)
	if len(computed.Flaky) != 3 || last.Flaky != 3 || len(computed.Errors) != 0 {
		t.Fatalf("computed batch: Flaky %+v, last update %+v; want all 3 runs recovered", computed.Flaky, last)
	}
	for i, re := range computed.Flaky {
		if re.Spec != "pp" || re.Run != i || re.Seed != computed.Outcomes[i].Seed {
			t.Errorf("Flaky[%d] = %+v, want it addressed as series pp run %d", i, re, i)
		}
	}

	resumed, last := execute(&replayBackend{}, true)
	if len(resumed.Flaky) != 0 || last.Flaky != 0 || last.Journaled != 3 {
		t.Errorf("resumed batch: Flaky %+v, last update %+v; want 3 clean journal hits", resumed.Flaky, last)
	}
	if !reflect.DeepEqual(resumed.Outcomes, computed.Outcomes) {
		t.Error("resume changed the outcomes")
	}

	served, last := execute(&replayBackend{cached: true}, false)
	if len(served.Flaky) != 0 || last.Flaky != 0 || last.Journaled != 3 {
		t.Errorf("cache-served batch: Flaky %+v, last update %+v; want 3 clean cache hits", served.Flaky, last)
	}
	if !reflect.DeepEqual(served.Outcomes, computed.Outcomes) {
		t.Error("cache-served outcomes differ from the computed ones")
	}
}

// TestCacheWriteFailuresAreCounted: a cache that cannot write — its file
// closed underneath the coordinator, as a full disk would fail every
// append — keeps serving from memory and shows in the counters instead of
// silently degrading to per-process.
func TestCacheWriteFailuresAreCounted(t *testing.T) {
	cache, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(Options{Cache: cache})
	grid := []spec.Spec{{Protocol: "push-pull", N: 8, F: 1, Seed: 4}}
	if _, err := coord.Submit(SweepRequest{Specs: grid}); err != nil {
		t.Fatal(err)
	}
	lease, err := coord.Acquire(context.Background())
	if err != nil || lease == nil {
		t.Fatalf("acquire: %v, %v", lease, err)
	}
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}
	if err := coord.Complete(lease.ID, CompleteRequest{Outcome: &sim.Outcome{N: 8, F: 1, Seed: 4}}); err != nil {
		t.Fatalf("a failing cache failed the completion: %v", err)
	}
	if ct := coord.Counters(); ct.CacheWriteErrors != 1 {
		t.Errorf("counters %+v, want 1 cache write error", ct)
	}
	if n, err := cache.WriteErrors(); n != 1 || err == nil {
		t.Errorf("WriteErrors = %d, %v; want the one failed append and its error", n, err)
	}
	if resp, err := coord.Submit(SweepRequest{Specs: grid}); err != nil || resp.CacheHits != 1 {
		t.Errorf("resubmit: %+v, %v; want the run served from memory", resp, err)
	}
}

func cacheRecord(seed uint64) Record {
	sp := spec.Spec{Protocol: "push-pull", N: 8, F: 1, Seed: seed}
	return Record{Fingerprint: sp.Fingerprint(), Spec: sp, Outcome: &sim.Outcome{Protocol: "push-pull", N: 8, F: 1, Seed: seed}}
}

// TestCacheIgnoresLegacyLayout: a directory written by the file-per-run
// cache — one <fingerprint>.json per record — opens as an empty cache (a
// miss recomputes; no reader is kept for the old layout) and its files are
// left alone.
func TestCacheIgnoresLegacyLayout(t *testing.T) {
	dir := t.TempDir()
	rec := cacheRecord(1)
	legacy := filepath.Join(dir, rec.Fingerprint+".json")
	body := []byte(`{"fp":"` + rec.Fingerprint + `","spec":{"v":1,"protocol":"push-pull","n":8,"f":1,"seed":1},"outcome":{"N":8}}`)
	if err := os.WriteFile(legacy, body, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, ok := c.Get(rec.Fingerprint); ok || c.Len() != 0 {
		t.Errorf("legacy directory opened with %d record(s), want an empty cache", c.Len())
	}
	if err := c.Put(rec); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(legacy); err != nil || string(got) != string(body) {
		t.Errorf("legacy file touched: %q, %v", got, err)
	}
}

// TestCacheSecondOpenSeesEarlierPuts: every Put is in the file when it
// returns, so a second cache opened on the directory while the first is
// still open — a restarted coordinator, the benchmark's read-back probe —
// loads them all, and lines an older build wrote too; and a Put of a
// fingerprint already held appends nothing.
func TestCacheSecondOpenSeesEarlierPuts(t *testing.T) {
	dir := t.TempDir()
	first, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	var want []Record
	for seed := uint64(1); seed <= 20; seed++ {
		rec := cacheRecord(seed)
		if err := first.Put(rec); err != nil {
			t.Fatal(err)
		}
		want = append(want, rec)
	}
	size := func() int64 {
		fi, err := os.Stat(filepath.Join(dir, "cache.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	before := size()
	if err := first.Put(want[0]); err != nil {
		t.Fatal(err)
	}
	if after := size(); after != before {
		t.Errorf("Put of a held fingerprint grew the log from %d to %d bytes", before, after)
	}

	// Lines an older build wrote, with per-process counters and interval
	// series in their outcomes, load and serve like the rest.
	f, err := os.OpenFile(filepath.Join(dir, "cache.jsonl"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	for seed, legacy := range map[uint64]func(string) string{
		21: simtest.LegacyOutcomeNull, 22: simtest.LegacyOutcomePopulated,
	} {
		rec := cacheRecord(seed)
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(legacy(string(line)) + "\n"); err != nil {
			t.Fatal(err)
		}
		want = append(want, rec)
	}
	f.Close()

	second, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if second.Len() != len(want) {
		t.Errorf("second open loaded %d records, want %d", second.Len(), len(want))
	}
	for _, rec := range want {
		if got, ok := second.Get(rec.Fingerprint); !ok || !reflect.DeepEqual(got, rec) {
			t.Errorf("record %s: got %+v (ok=%v), want %+v", rec.Fingerprint, got, ok, rec)
		}
	}
}
