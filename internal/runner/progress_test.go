package runner

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ugf-sim/ugf/internal/sim"
	"github.com/ugf-sim/ugf/internal/sim/trace"
	"github.com/ugf-sim/ugf/internal/xrand"
)

func TestOnRunFeed(t *testing.T) {
	var mu sync.Mutex
	var updates []RunUpdate
	_, err := ExecuteContext(context.Background(), specs(), Options{
		Workers: 4,
		OnRun: func(u RunUpdate) {
			mu.Lock()
			updates = append(updates, u)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(updates) != 10 {
		t.Fatalf("got %d updates, want 10", len(updates))
	}
	dones := make([]int, len(updates))
	for i, u := range updates {
		dones[i] = u.Done
		if u.Total != 10 {
			t.Errorf("update %d: Total = %d, want 10", i, u.Total)
		}
		if u.Spec != "pp" && u.Spec != "rr" {
			t.Errorf("update %d: unknown spec %q", i, u.Spec)
		}
		if u.Failed != 0 || u.Flaky != 0 || u.Journaled != 0 || u.FromJournal || u.Err != nil {
			t.Errorf("update %d: unexpected failure fields: %+v", i, u)
		}
		spec := specs()[0]
		if u.Spec == "rr" {
			spec = specs()[1]
		}
		if want := xrand.Derive(spec.BaseSeed, uint64(u.Run)); u.Seed != want {
			t.Errorf("update %d: Seed = %d, want derived %d", i, u.Seed, want)
		}
	}
	sort.Ints(dones)
	for i, d := range dones {
		if d != i+1 {
			t.Fatalf("Done values not dense 1..10: %v", dones)
		}
	}
}

func TestOnRunReportsJournalHits(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExecuteContext(context.Background(), specs(), Options{Journal: j}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j, err = OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var mu sync.Mutex
	journaled, fresh := 0, 0
	var final RunUpdate
	_, err = ExecuteContext(context.Background(), specs(), Options{
		Journal: j,
		OnRun: func(u RunUpdate) {
			mu.Lock()
			defer mu.Unlock()
			if u.FromJournal {
				journaled++
			} else {
				fresh++
			}
			if u.Done == u.Total {
				final = u
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if journaled != 10 || fresh != 0 {
		t.Fatalf("resume: %d journal-served, %d computed; want 10/0", journaled, fresh)
	}
	if final.Journaled != 10 {
		t.Fatalf("final update Journaled = %d, want 10", final.Journaled)
	}
}

func TestOnRunCountsDeterministicFailures(t *testing.T) {
	bad := []Spec{{
		Name: "boom",
		Base: sim.Config{N: 6, F: 0, Protocol: panicProto{}},
		Runs: 3, BaseSeed: 5,
	}}
	var mu sync.Mutex
	var failedRuns []int
	maxFailed := 0
	results, err := ExecuteContext(context.Background(), bad, Options{
		Workers: 2,
		OnRun: func(u RunUpdate) {
			mu.Lock()
			defer mu.Unlock()
			if u.Err != nil {
				failedRuns = append(failedRuns, u.Run)
			}
			if u.Failed > maxFailed {
				maxFailed = u.Failed
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results[0].Errors) != 3 {
		t.Fatalf("want 3 deterministic failures, got %d", len(results[0].Errors))
	}
	if len(failedRuns) != 3 || maxFailed != 3 {
		t.Fatalf("OnRun saw %d failed updates (cumulative max %d), want 3/3", len(failedRuns), maxFailed)
	}
}

// panicProto panics at the first local step of process 0 — deterministic.
type panicProto struct{}

func (panicProto) Name() string { return "panic" }
func (panicProto) New(envs []sim.Env) []sim.Process {
	return sim.BuildEach(envs, func(env sim.Env) sim.Process { return panicProc{id: env.ID} })
}

type panicProc struct{ id sim.ProcID }

func (p panicProc) Step(now sim.Step, delivered []sim.Message, out *sim.Outbox) {
	if p.id == 0 {
		panic("deterministic test panic")
	}
}
func (p panicProc) Asleep() bool            { return true }
func (p panicProc) Knows(g sim.ProcID) bool { return g == p.id }

func TestTraceFactoryPerRunFiles(t *testing.T) {
	dir := t.TempDir()
	sp := specs()[:1] // "pp", 6 runs
	var mu sync.Mutex
	created := 0
	results, err := ExecuteContext(context.Background(), sp, Options{
		Workers: 3,
		Trace: func(spec Spec, run int) sim.TraceSink {
			mu.Lock()
			created++
			mu.Unlock()
			jl, err := trace.Create(filepath.Join(dir, fmt.Sprintf("%s_run%d.jsonl", spec.Name, run)))
			if err != nil {
				t.Error(err)
				return nil
			}
			return jl
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if created != 6 {
		t.Fatalf("factory called %d times, want 6", created)
	}
	for run := 0; run < 6; run++ {
		f, err := os.Open(filepath.Join(dir, fmt.Sprintf("pp_run%d.jsonl", run)))
		if err != nil {
			t.Fatal(err)
		}
		recs, err := trace.Read(f)
		f.Close()
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		// The sink was closed (hence flushed) by the runner: the trace must
		// be complete, one send record per message plus the end marker.
		sends := 0
		for _, r := range recs {
			if r.Kind == "send" {
				sends++
			}
		}
		if int64(sends) != results[0].Outcomes[run].Messages {
			t.Errorf("run %d: trace has %d sends, outcome says %d",
				run, sends, results[0].Outcomes[run].Messages)
		}
		if last := recs[len(recs)-1]; last.Kind != "end" {
			t.Errorf("run %d: trace not terminated: last record %+v", run, last)
		}
	}
	// Tracing must not perturb outcomes.
	plain, err := ExecuteContext(context.Background(), sp, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripWall(plain), stripWall(results)) {
		t.Fatal("per-run tracing changed outcomes")
	}
}

func TestProgressSnapshotAndLine(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, "fig3a")
	p.Interval = time.Nanosecond // print every update
	p.OnRun(RunUpdate{Spec: "a", Run: 0, Done: 2, Total: 10, Failed: 1, Journaled: 1})
	time.Sleep(5 * time.Millisecond) // give the rate a nonzero time base
	p.OnRun(RunUpdate{Spec: "a", Run: 1, Done: 3, Total: 10, Failed: 1, Journaled: 2})
	s := p.Snapshot()
	if s.Done != 3 || s.Total != 10 || s.Failed != 1 || s.Journaled != 2 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.Label != "fig3a" {
		t.Fatalf("label = %q", s.Label)
	}
	// One computed run (3 done - 2 journaled) over >0 elapsed: a rate and
	// an ETA must exist.
	if s.RunsPerSec <= 0 || !s.ETAValid {
		t.Fatalf("rate/ETA missing: %+v", s)
	}
	out := buf.String()
	for _, want := range []string{"fig3a:", "3/10 runs", "1 failed", "2 from journal", "ETA"} {
		if !strings.Contains(out, want) {
			t.Errorf("progress line %q missing %q", out, want)
		}
	}
	buf.Reset()
	p.Finish()
	if got := buf.String(); !strings.Contains(got, "\033[K") {
		t.Errorf("Finish must clear the line, wrote %q", got)
	}
}

func TestProgressStaleUpdatesIgnored(t *testing.T) {
	p := NewProgress(nil, "x")
	p.OnRun(RunUpdate{Done: 5, Total: 10})
	p.OnRun(RunUpdate{Done: 3, Total: 10}) // delivered out of order
	if s := p.Snapshot(); s.Done != 5 {
		t.Fatalf("stale update regressed Done: %+v", s)
	}
}

func TestProgressETADiscountsJournal(t *testing.T) {
	// 10 of 12 done, but 8 came from the journal: the rate must reflect the
	// 2 computed runs, so the ETA for the 2 remaining ≈ elapsed.
	p := NewProgress(nil, "")
	p.OnRun(RunUpdate{Done: 10, Total: 12, Journaled: 8})
	time.Sleep(20 * time.Millisecond)
	s := p.Snapshot()
	if !s.ETAValid {
		t.Fatal("no ETA")
	}
	if ratio := float64(s.ETA) / float64(s.Elapsed); ratio < 0.5 || ratio > 2 {
		t.Fatalf("ETA %v vs elapsed %v: journal runs not discounted (ratio %.2f)", s.ETA, s.Elapsed, ratio)
	}
}
