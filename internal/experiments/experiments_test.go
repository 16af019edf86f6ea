package experiments

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/ugf-sim/ugf/internal/runner"
)

// quick is the whole Quick artifact set, planned and run once as one
// batch for every test that reads a report.
var quick struct {
	once    sync.Once
	reports map[string]*Report
	final   runner.RunUpdate // the batch's last OnRun update
	err     error
}

func quickReports(t *testing.T) map[string]*Report {
	t.Helper()
	quick.once.Do(func() {
		var mu sync.Mutex
		opts := runner.Options{Workers: 2, OnRun: func(u runner.RunUpdate) {
			mu.Lock()
			defer mu.Unlock()
			if u.Done > quick.final.Done {
				quick.final = u
			}
		}}
		reps, err := Run(context.Background(), Config{Fidelity: Quick}, All(),
			func(ctx context.Context, specs []runner.Spec) ([]runner.Result, error) {
				return runner.ExecuteContext(ctx, specs, opts)
			})
		quick.reports, quick.err = map[string]*Report{}, err
		for _, rep := range reps {
			quick.reports[rep.ID] = rep
		}
	})
	if quick.err != nil {
		t.Fatalf("quick batch: %v", quick.err)
	}
	return quick.reports
}

func quickReport(t *testing.T, id string) *Report {
	t.Helper()
	rep, ok := quickReports(t)[id]
	if !ok {
		t.Fatalf("no report for experiment %q", id)
	}
	return rep
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig3a", "fig3b", "fig3c", "fig3d", "fig3e",
		"example1", "lemma45", "lemma1", "tradeoff",
		"fsweep", "strategies", "oblivious", "adaptation", "omission",
		"tuning", "degradation", "topology",
	}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(IDs()) != len(want) {
		t.Errorf("registered %d experiments, want %d: %v", len(IDs()), len(want), IDs())
	}
}

func TestByID(t *testing.T) {
	e, ok := ByID("fig3a")
	if !ok || e.ID != "fig3a" {
		t.Fatal("fig3a not found")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("unknown id found")
	}
}

func TestParseFidelity(t *testing.T) {
	for _, s := range []string{"quick", "medium", "full"} {
		f, err := ParseFidelity(s)
		if err != nil {
			t.Fatal(err)
		}
		if f.String() != s {
			t.Errorf("round trip %q -> %q", s, f.String())
		}
	}
	if _, err := ParseFidelity("bogus"); err == nil {
		t.Fatal("bogus fidelity accepted")
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	if c.seed() != 2022 {
		t.Errorf("default seed = %d", c.seed())
	}
	if c.runs() != 8 {
		t.Errorf("quick runs = %d", c.runs())
	}
	if len(c.grid()) != 4 {
		t.Errorf("quick grid = %v", c.grid())
	}
	full := Config{Fidelity: Full}
	if full.runs() != 50 {
		t.Errorf("full runs = %d", full.runs())
	}
	if got := full.grid(); len(got) != 10 || got[0] != 10 || got[9] != 500 {
		t.Errorf("full grid = %v", got)
	}
	med := Config{Fidelity: Medium}
	if med.runs() != 15 {
		t.Errorf("medium runs = %d", med.runs())
	}
}

// TestQuickBatchDedup: the Quick artifact set plans 1 244 runs, of which
// 972 are distinct — Fig. 3c/3d repeat 3a/3b's baseline and UGF series,
// and the N = 40 tables repeat series of fsweep, Fig. 3 and each other —
// so the batch computes 972 and serves the other 272 from their first
// occurrence.
func TestQuickBatchDedup(t *testing.T) {
	quickReports(t)
	u := quick.final
	if u.Total != 1244 || u.Done != u.Total {
		t.Fatalf("batch finished %d of %d runs, want 1244 of 1244", u.Done, u.Total)
	}
	if computed := u.Done - u.Journaled; computed != 972 {
		t.Errorf("batch computed %d runs and served %d, want 972 and 272", computed, u.Journaled)
	}
}

// TestAllExperimentsRunQuick executes every registered experiment at
// quick fidelity and validates report structure. Claim verdicts are
// pinned by TestQuickVerdictsPinned.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment sweep still takes tens of seconds")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			rep := quickReport(t, e.ID)
			if rep.ID != e.ID {
				t.Errorf("report id %q, want %q", rep.ID, e.ID)
			}
			if rep.Paper == "" {
				t.Error("report missing paper reference")
			}
			if len(rep.Tables) == 0 {
				t.Error("report has no tables")
			}
			for _, tbl := range rep.Tables {
				if len(tbl.Rows) == 0 {
					t.Errorf("table %q empty", tbl.Title)
				}
				for _, row := range tbl.Rows {
					if len(row) != len(tbl.Columns) {
						t.Errorf("table %q: row width %d vs %d columns", tbl.Title, len(row), len(tbl.Columns))
					}
				}
			}
			if len(rep.Notes) == 0 {
				t.Error("report has no notes")
			}
		})
	}
}

// TestQuickVerdictsPinned pins every verdict of the Quick artifact set:
// all reproduce except two known misses of the reduced Quick grid (both
// reproduce at Medium) — Fig. 3b's time shape and the F sweep's
// monotonicity — so a verdict flipping either way fails.
func TestQuickVerdictsPinned(t *testing.T) {
	misses := map[string]string{
		"fig3b":  "baseline sub-linear, max-UGF linear",
		"fsweep": "disruption grows with F",
	}
	verdicts, reproduced := 0, 0
	for _, e := range All() {
		for _, note := range quickReport(t, e.ID).Notes {
			not := strings.Contains(note, "NOT reproduced")
			if !not && !strings.Contains(note, "REPRODUCED") {
				continue
			}
			verdicts++
			miss, known := misses[e.ID]
			if wantNot := known && strings.Contains(note, miss); not != wantNot {
				t.Errorf("%s: verdict flipped (want NOT reproduced: %v): %s", e.ID, wantNot, note)
			}
			if !not {
				reproduced++
			}
		}
	}
	if verdicts != 26 || reproduced != 24 {
		t.Errorf("%d verdicts, %d reproduced; want 26 and 24", verdicts, reproduced)
	}
}

func TestLemma45BoundsHoldQuick(t *testing.T) {
	rep := quickReport(t, "lemma45")
	if !hasNote(rep, "all tail bounds hold empirically: REPRODUCED") {
		t.Errorf("lemma bounds not reproduced; notes: %v", rep.Notes)
	}
}

func TestExample1ShapeQuick(t *testing.T) {
	rep := quickReport(t, "example1")
	if !hasNote(rep, "M quadratic and T linear: REPRODUCED") {
		t.Errorf("example 1 shape not reproduced; notes: %v", rep.Notes)
	}
}

// TestDegradationQuick checks the fault-model sweep actually exercises
// the fault machinery: the aggregated engine counters must show link
// drops (the lossy-link specs) and recoveries (the crash-recovery
// specs), and the sweep must degrade gracefully — the claim its own
// notes assert.
func TestDegradationQuick(t *testing.T) {
	rep := quickReport(t, "degradation")
	if rep.Engine.DroppedLink == 0 {
		t.Error("no link drops recorded across the lossy specs")
	}
	if rep.Engine.Recoveries == 0 {
		t.Error("no recoveries recorded across the crash-recovery specs")
	}
	if !hasNote(rep, "stalls detected): REPRODUCED") {
		t.Errorf("graceful-degradation claim not reproduced; notes: %v", rep.Notes)
	}
}

// TestRunResumesAcrossExperiments: a batch of two experiments interrupted
// partway resumes from its one journal, computing exactly the distinct
// runs the journal does not hold — none of an experiment that finished
// before the interruption is recomputed. Fig. 3a and 3c plan 192 runs, 128
// of them distinct.
func TestRunResumesAcrossExperiments(t *testing.T) {
	exps := []Experiment{mustExp(t, "fig3a"), mustExp(t, "fig3c")}
	path := filepath.Join(t.TempDir(), "batch.journal.jsonl")
	pass := func(resume bool, stopAfter int) (computed, held int, err error) {
		j, err := runner.OpenJournal(path, resume)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var mu sync.Mutex
		finished := 0
		opts := runner.Options{Workers: 2, Journal: j, OnRun: func(u runner.RunUpdate) {
			mu.Lock()
			defer mu.Unlock()
			if !u.FromJournal {
				computed++
			}
			if finished++; finished == stopAfter {
				cancel()
			}
		}}
		_, err = Run(ctx, Config{Fidelity: Quick}, exps, func(ctx context.Context, specs []runner.Spec) ([]runner.Result, error) {
			return runner.ExecuteContext(ctx, specs, opts)
		})
		return computed, j.Len(), err
	}
	_, held, err := pass(false, 150)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted batch: err = %v, want context.Canceled", err)
	}
	if held == 0 || held >= 128 {
		t.Fatalf("journal holds %d runs after the interruption, want some of the 128", held)
	}
	computed, _, err := pass(true, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("journal held %d of the 128 distinct runs at the interruption; the resume computed %d", held, computed)
	if computed != 128-held {
		t.Errorf("resume computed %d runs, want 128 − %d journaled = %d", computed, held, 128-held)
	}
}

func mustExp(t *testing.T, id string) Experiment {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %q missing", id)
	}
	return e
}

func hasNote(rep *Report, substr string) bool {
	for _, n := range rep.Notes {
		if strings.Contains(n, substr) {
			return true
		}
	}
	return false
}
