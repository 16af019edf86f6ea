package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

// The test runs every workload at smoke sizes: go test from this directory
// (the benchmark is a module of its own, so the repo's go test ./... does
// not reach it).

func smokeRun(t *testing.T, workload string, seed uint64, trace bool, dir string) (report, []metricDecl) {
	t.Helper()
	rep, declared, err := execute(options{workload: workload, seed: seed, seconds: 1, trace: trace, smoke: true, outDir: dir})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !rep.Result.Correct || rep.Result.Failed != 0 || rep.Result.Attempted < 1 {
		t.Fatalf("%s seed %d trace %v: correct=%v attempted=%d failed=%d: %v", workload, seed, trace,
			rep.Result.Correct, rep.Result.Attempted, rep.Result.Failed, rep.Failures)
	}
	// The result line carries exactly the declared metrics and parses back.
	line, err := json.Marshal(rep.Result)
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		Correct   *bool                  `json:"correct"`
		Attempted *int                   `json:"attempted"`
		Failed    *int                   `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}
	if err := json.Unmarshal(line, &back); err != nil || back.Correct == nil || back.Attempted == nil || back.Failed == nil {
		t.Fatalf("%s: result line %s: %v", workload, line, err)
	}
	if len(back.Metrics) != len(declared) {
		t.Errorf("%s trace %v: %d metrics in the result line, %d declared", workload, trace, len(back.Metrics), len(declared))
	}
	for _, d := range declared {
		if m, ok := back.Metrics[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("%s trace %v: metric %s: in result=%v unit %q, declared unit %q", workload, trace, d.Name, ok, m.Unit, d.Unit)
		}
	}
	return rep, declared
}

func TestDeclaration(t *testing.T) {
	decl, err := loadDeclaration()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(decl.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(decl.Workloads), len(workloads))
	}
	for _, w := range decl.Workloads {
		check(w.Name)
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("workload %q is declared but not implemented", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: why has %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range decl.EndToEnd {
		check(m.Name)
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is malformed", m)
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range decl.PerLayer {
		check(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v is malformed", m)
		}
	}
}

// TestSmoke runs all four workloads untraced: every end-to-end metric is
// there and non-zero, counts and digests repeat exactly for a seed and move
// with it.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		a, declared := smokeRun(t, w.name, 7, false, t.TempDir())
		b, _ := smokeRun(t, w.name, 7, false, t.TempDir())
		c, _ := smokeRun(t, w.name, 8, false, t.TempDir())
		for _, d := range declared {
			if a.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: %s = %v", w.name, d.Name, a.Metrics[d.Name].Value)
			}
		}
		if a.Digest != b.Digest || !reflect.DeepEqual(a.Counts, b.Counts) {
			t.Errorf("%s: same seed, different record:\n%s %v\n%s %v", w.name, a.Digest, a.Counts, b.Digest, b.Counts)
		}
		if a.Digest == c.Digest || reflect.DeepEqual(a.Counts, c.Counts) {
			t.Errorf("%s: seeds 7 and 8 leave the same record %s %v", w.name, a.Digest, a.Counts)
		}
	}
}

// TestSmokeTraced runs one traced run: every per-layer metric is there and
// the span file is written and parses.
func TestSmokeTraced(t *testing.T) {
	dir := t.TempDir()
	smokeRun(t, "coord-sweep", 7, true, dir)
	data, err := os.ReadFile(filepath.Join(dir, "coord-sweep.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &file); err != nil || len(file.Spans) == 0 {
		t.Fatalf("span file: %d spans, %v", len(file.Spans), err)
	}
	for _, s := range file.Spans {
		if s.End < s.Start || s.Parent >= s.ID || s.Layer == "" {
			t.Fatalf("malformed span %+v", s)
		}
	}
}
