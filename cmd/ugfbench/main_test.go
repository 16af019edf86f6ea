package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ugf-sim/ugf/internal/sim/trace"
)

func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var b strings.Builder
	err := run(context.Background(), args, &b)
	return b.String(), err
}

func TestList(t *testing.T) {
	out, err := runCLI(t, "-list")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"fig3a", "fig3e", "lemma45", "tradeoff", "adaptation"} {
		if !strings.Contains(out, id) {
			t.Errorf("list missing %q:\n%s", id, out)
		}
	}
}

func TestSingleExperiment(t *testing.T) {
	out, err := runCLI(t, "-exp", "example1", "-progress=false")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"example1", "paper:", "REPRODUCED", "fidelity: quick"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestOutputFiles(t *testing.T) {
	dir := t.TempDir()
	if _, err := runCLI(t, "-exp", "lemma45", "-out", dir, "-progress=false"); err != nil {
		t.Fatal(err)
	}
	md, err := os.ReadFile(filepath.Join(dir, "lemma45.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(md), "Lemma") || !strings.Contains(string(md), "**Findings:**") {
		t.Errorf("markdown incomplete:\n%s", md)
	}
	csv, err := os.ReadFile(filepath.Join(dir, "lemma45_0.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csv), "t,lemma,empirical") {
		t.Errorf("csv header wrong: %q", strings.SplitN(string(csv), "\n", 2)[0])
	}
}

func TestSummaryFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "summary.md")
	if _, err := runCLI(t, "-exp", "example1", "-summary", path, "-progress=false"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.Contains(s, "| `example1` |") || !strings.Contains(s, "REPRODUCED") {
		t.Errorf("summary incomplete:\n%s", s)
	}
}

func TestSplitVerdict(t *testing.T) {
	cases := []struct {
		note, claim, status string
		ok                  bool
	}{
		{"paper claim — X: REPRODUCED", "paper claim — X", "REPRODUCED", true},
		{"paper claim — Y: NOT reproduced", "paper claim — Y", "NOT reproduced", true},
		{"designation — Z: NOT reproduced (commentary)", "designation — Z (commentary)", "NOT reproduced", true},
		{"adaptive vs fixed Strategy 1: T 3.0 vs push-pull's 9.0 — evasion REPRODUCED",
			"adaptive vs fixed Strategy 1: T 3.0 vs push-pull's 9.0 — evasion", "REPRODUCED", true},
		{"ears: median T 6.0 at drop=0% → 9.0 at drop=50% — redundancy absorbs losses at a time cost REPRODUCED",
			"ears: median T 6.0 at drop=0% → 9.0 at drop=50% — redundancy absorbs losses at a time cost", "REPRODUCED", true},
		{"ears: median T 6.0 on the complete graph → 4.0 on the ring — sparse graphs cost time, never correctness NOT reproduced",
			"ears: median T 6.0 on the complete graph → 4.0 on the ring — sparse graphs cost time, never correctness", "NOT reproduced", true},
		{"ears: blocked sends 0 on the complete graph, 40 on the ring — the send gate only ever fires off-graph REPRODUCED",
			"ears: blocked sends 0 on the complete graph, 40 on the ring — the send gate only ever fires off-graph", "REPRODUCED", true},
		{"just a note", "", "", false},
	}
	for _, c := range cases {
		claim, status, ok := splitVerdict(c.note)
		if ok != c.ok || claim != c.claim || status != c.status {
			t.Errorf("splitVerdict(%q) = (%q, %q, %v), want (%q, %q, %v)",
				c.note, claim, status, ok, c.claim, c.status, c.ok)
		}
	}
}

func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	if _, err := runCLI(t, "-exp", "example1", "-progress=false", "-cpuprofile", cpu, "-memprofile", mem); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		st, err := os.Stat(path)
		if err != nil {
			t.Errorf("profile not written: %v", err)
			continue
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", path)
		}
	}
}

func TestErrors(t *testing.T) {
	cases := [][]string{
		{"-exp", "bogus"},
		{"-fidelity", "bogus"},
		{"-not-a-flag"},
		{"-resume"},                              // -resume without -out has no journal to resume from
		{"-trace-kinds", "send"},                 // -trace-kinds without -trace has nothing to filter
		{"-trace", ".", "-trace-kinds", "bogus"}, // unknown trace kind
	}
	for _, args := range cases {
		if _, err := runCLI(t, args...); err == nil {
			t.Errorf("args %v: no error", args)
		}
	}
}

// TestKillAndResume is the end-to-end fault-tolerance check: a sweep
// cancelled mid-flight (via -cancelafter, the deterministic stand-in for
// SIGINT) journals its finished runs, and rerunning with -resume completes
// the sweep with artifacts byte-identical to an uninterrupted one.
func TestKillAndResume(t *testing.T) {
	baseline := t.TempDir()
	resumed := t.TempDir()
	exp := "fig3a"
	common := []string{"-exp", exp, "-progress=false", "-out"}

	if _, err := runCLI(t, append(common, baseline)...); err != nil {
		t.Fatal(err)
	}

	_, err := runCLI(t, append(append(common, resumed), "-cancelafter", "10")...)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep: err = %v, want context.Canceled", err)
	}
	journal := filepath.Join(resumed, exp+".journal.jsonl")
	if _, err := os.Stat(journal); err != nil {
		t.Fatalf("no journal after interruption: %v", err)
	}

	if _, err := runCLI(t, append(append(common, resumed), "-resume")...); err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	if _, err := os.Stat(journal); !os.IsNotExist(err) {
		t.Errorf("journal not removed after clean resume (err=%v)", err)
	}

	for _, name := range []string{exp + "_0.csv", exp + ".md"} {
		want, err := os.ReadFile(filepath.Join(baseline, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(resumed, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs between uninterrupted and resumed sweeps:\n--- uninterrupted ---\n%s\n--- resumed ---\n%s",
				name, want, got)
		}
	}

	for _, dir := range []string{baseline, resumed} {
		leftovers, err := filepath.Glob(filepath.Join(dir, "*.tmp*"))
		if err != nil {
			t.Fatal(err)
		}
		if len(leftovers) > 0 {
			t.Errorf("temp files left behind in %s: %v", dir, leftovers)
		}
	}
}

func TestStatsFlag(t *testing.T) {
	out, err := runCLI(t, "-exp", "example1", "-progress=false", "-stats")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"engine stats over", "scheduler:", "messages:", "pressure:",
		"lifecycle:", "adversary:", "wall time:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-stats output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "scheduler: 0 events,") {
		t.Errorf("-stats reports an empty scheduler:\n%s", out)
	}
}

func TestTraceFlagWritesPerRunFiles(t *testing.T) {
	dir := t.TempDir()
	if _, err := runCLI(t, "-exp", "example1", "-progress=false", "-trace", dir); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "example1_*_run*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatalf("no trace files written to %s", dir)
	}
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := trace.Read(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(recs) == 0 || recs[len(recs)-1].Kind != "end" {
			t.Errorf("%s: trace empty or not terminated (%d records)", path, len(recs))
		}
	}
}

func TestTraceKindsFiltersFiles(t *testing.T) {
	dir := t.TempDir()
	if _, err := runCLI(t, "-exp", "example1", "-progress=false",
		"-trace", dir, "-trace-kinds", "send"); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no trace files (err=%v)", err)
	}
	total := 0
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := trace.Read(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, r := range recs {
			if r.Kind != "send" {
				t.Fatalf("%s: kind %q escaped the -trace-kinds send filter", path, r.Kind)
			}
		}
		total += len(recs)
	}
	if total == 0 {
		t.Fatal("filtered traces kept no send events at all")
	}
}

// TestResumeProgressCountsJournal is the CLI end of the live-progress
// acceptance: after an interrupted sweep is resumed, the progress snapshot
// (the same one -debugaddr serves via expvar) must show the full sweep done
// with the journal-served runs counted separately, so the ETA during the
// resume was derived from computed runs only.
func TestResumeProgressCountsJournal(t *testing.T) {
	dir := t.TempDir()
	common := []string{"-exp", "fig3a", "-progress=false", "-out", dir}

	_, err := runCLI(t, append(common, "-cancelafter", "10")...)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep: err = %v, want context.Canceled", err)
	}
	if _, err := runCLI(t, append(common, "-resume")...); err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	snap := currentProgress.Load()
	if snap == nil {
		t.Fatal("no progress snapshot published")
	}
	if snap.Done != snap.Total || snap.Total == 0 {
		t.Fatalf("resumed sweep incomplete in snapshot: %+v", snap)
	}
	if snap.Journaled == 0 || snap.Journaled >= snap.Total {
		t.Fatalf("snapshot must count journal-served runs (0 < Journaled < Total): %+v", snap)
	}
}
