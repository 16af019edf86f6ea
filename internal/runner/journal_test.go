package runner

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"github.com/ugf-sim/ugf/internal/sim"
	"github.com/ugf-sim/ugf/internal/simtest"
)

func journalSpecs(calls *atomic.Int64) []Spec {
	return []Spec{
		{Name: "a", Base: sim.Config{N: 8, F: 2, Protocol: countProto{calls: calls}}, Runs: 5, BaseSeed: 11},
		{Name: "b", Base: sim.Config{N: 6, F: 0, Protocol: countProto{calls: calls}}, Runs: 3, BaseSeed: 12},
	}
}

// TestJournalResumeSkipsRecordedRuns: a journaled batch replays entirely
// from the journal — identical results, zero recomputation — and so does
// a journal whose outcomes carry the per-process counters and interval
// series that older builds wrote.
func TestJournalResumeSkipsRecordedRuns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	var calls atomic.Int64
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	first, err := ExecuteContext(context.Background(), journalSpecs(&calls), Options{Workers: 2, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 8 {
		t.Fatalf("first pass executed %d runs, want 8", calls.Load())
	}
	written, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for _, form := range []struct {
		name   string
		legacy func(string) string
	}{
		{"as written", func(s string) string { return s }},
		{"older build, fields null", simtest.LegacyOutcomeNull},
		{"older build, fields populated", simtest.LegacyOutcomePopulated},
	} {
		if err := os.WriteFile(path, []byte(form.legacy(string(written))), 0o644); err != nil {
			t.Fatal(err)
		}
		calls.Store(0)
		j2, err := OpenJournal(path, true)
		if err != nil {
			t.Fatal(err)
		}
		if j2.Len() != 8 {
			t.Fatalf("%s: journal loaded %d entries, want 8", form.name, j2.Len())
		}
		second, err := ExecuteContext(context.Background(), journalSpecs(&calls), Options{Workers: 2, Journal: j2})
		j2.Close()
		if err != nil {
			t.Fatal(err)
		}
		if calls.Load() != 0 {
			t.Errorf("%s: resume recomputed %d runs, want 0", form.name, calls.Load())
		}
		if !reflect.DeepEqual(first, second) {
			t.Errorf("%s: journal round trip changed the results", form.name)
		}
	}
}

// TestJournalToleratesTornTail: a crash mid-write leaves a partial final
// line; loading skips it and the affected run is simply recomputed.
func TestJournalToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	var calls atomic.Int64
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExecuteContext(context.Background(), journalSpecs(&calls), Options{Workers: 1, Journal: j}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"fp":"dead","spec":"a","run":9,"outc`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 8 {
		t.Fatalf("torn tail corrupted the load: %d entries, want 8", j2.Len())
	}
}

// TestJournalFingerprintGuardsStaleEntries: entries recorded for a
// different spec (here: another base seed) are never served.
func TestJournalFingerprintGuardsStaleEntries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	var calls atomic.Int64
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExecuteContext(context.Background(), journalSpecs(&calls), Options{Workers: 1, Journal: j}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	calls.Store(0)
	changed := journalSpecs(&calls)
	for i := range changed {
		changed[i].BaseSeed += 1000
	}
	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if _, err := ExecuteContext(context.Background(), changed, Options{Workers: 1, Journal: j2}); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 8 {
		t.Errorf("stale journal served a changed spec: %d fresh runs, want 8", calls.Load())
	}
}

// TestJournalServesDeterministicFailures: recorded RunErrors resume as
// RunErrors — a known-bad run is not re-detonated on every resume.
func TestJournalServesDeterministicFailures(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	spec := Spec{Name: "bombs", Base: sim.Config{N: 4, Protocol: bombProto{}}, Runs: 2, BaseSeed: 7}
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	first, err := ExecuteContext(context.Background(), []Spec{spec}, Options{Workers: 1, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	if j.ErrorCount() != 2 {
		t.Fatalf("ErrorCount = %d, want 2", j.ErrorCount())
	}
	j.Close()

	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	second, err := ExecuteContext(context.Background(), []Spec{spec}, Options{Workers: 1, Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	if len(second[0].Errors) != 2 {
		t.Fatalf("resumed batch reported %d errors, want 2", len(second[0].Errors))
	}
	if !reflect.DeepEqual(first[0].Errors, second[0].Errors) {
		t.Error("journal round trip changed the recorded errors")
	}
}

// TestFingerprintSensitivity: the fingerprint must move with anything that
// determines outcomes, including adversary tuning fields Name() omits, and
// with nothing else — the series name and Runs label and size a plan, and
// two series that differ only there share their runs.
func TestFingerprintSensitivity(t *testing.T) {
	base := Spec{Name: "s", Base: sim.Config{N: 10, F: 3, Protocol: bombProto{}, Adversary: panicAdv{Trigger: 1}}, Runs: 5, BaseSeed: 1}
	fp := Fingerprint(base)
	mutate := map[string]struct {
		mut   func(*Spec)
		moves bool
	}{
		"name":      {func(s *Spec) { s.Name = "t" }, false},
		"runs":      {func(s *Spec) { s.Runs = 6 }, false},
		"seed":      {func(s *Spec) { s.BaseSeed = 2 }, true},
		"n":         {func(s *Spec) { s.Base.N = 11 }, true},
		"f":         {func(s *Spec) { s.Base.F = 4 }, true},
		"maxevents": {func(s *Spec) { s.Base.MaxEvents = 77 }, true},
		"adversary": {func(s *Spec) { s.Base.Adversary = panicAdv{Trigger: 2} }, true},
		"protocol":  {func(s *Spec) { s.Base.Protocol = nil }, true},
	}
	for what, m := range mutate {
		s := base
		m.mut(&s)
		if moved := Fingerprint(s) != fp; moved != m.moves {
			t.Errorf("changing %s moved the fingerprint: %v, want %v", what, moved, m.moves)
		}
	}
	if Fingerprint(base) != fp {
		t.Error("fingerprint not stable")
	}
}
