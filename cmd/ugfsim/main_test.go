package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ugf-sim/ugf"
)

func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var b strings.Builder
	err := run(args, &b)
	return b.String(), err
}

func TestSingleRun(t *testing.T) {
	out, err := runCLI(t, "-protocol", "push-pull", "-n", "20", "-seed", "3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "push-pull vs none") {
		t.Errorf("missing outcome line:\n%s", out)
	}
	if !strings.Contains(out, "gathered=true") {
		t.Errorf("baseline run failed gathering:\n%s", out)
	}
}

func TestDefaultFIsThirtyPercent(t *testing.T) {
	out, err := runCLI(t, "-protocol", "ears", "-adversary", "strategy-1", "-n", "40")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "F=12") {
		t.Errorf("expected F=12 for N=40:\n%s", out)
	}
}

func TestMultiRunSummary(t *testing.T) {
	out, err := runCLI(t, "-protocol", "ears", "-adversary", "ugf", "-n", "30", "-f", "9", "-runs", "6", "-q")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"time T(O)", "messages M(O)", "rumor gathering", "strategies drawn"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "ears vs ugf[") {
		t.Error("-q must suppress per-run outcome lines")
	}
}

func TestTrace(t *testing.T) {
	out, err := runCLI(t, "-protocol", "broadcast", "-n", "3", "-trace")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "send") || !strings.Contains(out, "arrive") {
		t.Errorf("trace missing events:\n%s", out)
	}
}

func TestJSONOutput(t *testing.T) {
	out, err := runCLI(t, "-protocol", "ears", "-n", "10", "-json")
	if err != nil {
		t.Fatal(err)
	}
	var o struct {
		Protocol string
		N        int
		Gathered bool
	}
	if err := json.Unmarshal([]byte(out), &o); err != nil {
		t.Fatalf("invalid JSON %q: %v", out, err)
	}
	if o.Protocol != "ears" || o.N != 10 {
		t.Errorf("unexpected JSON outcome: %+v", o)
	}
}

func TestJSONMultiRun(t *testing.T) {
	out, err := runCLI(t, "-protocol", "ears", "-n", "10", "-runs", "3", "-json")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 JSON lines, got %d:\n%s", len(lines), out)
	}
	for _, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Errorf("invalid JSON line %q", line)
		}
	}
}

func TestCurveOutput(t *testing.T) {
	out, err := runCLI(t, "-protocol", "push-pull", "-n", "8", "-curve")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "coverage=") {
		t.Fatalf("no curve samples:\n%s", out)
	}
	if !strings.Contains(out, "coverage=1.000") {
		t.Errorf("curve never reached full coverage:\n%s", out)
	}
}

func TestTraceOutWritesJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	out, err := runCLI(t, "-protocol", "push-pull", "-n", "15", "-seed", "4",
		"-traceout", path, "-json")
	if err != nil {
		t.Fatal(err)
	}
	var o struct{ Messages int }
	if err := json.Unmarshal([]byte(out), &o); err != nil {
		t.Fatalf("invalid JSON outcome %q: %v", out, err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := ugf.ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	sends := 0
	for _, r := range recs {
		if r.Kind == "send" {
			sends++
		}
	}
	if sends != o.Messages {
		t.Errorf("trace holds %d sends, outcome says %d", sends, o.Messages)
	}
	if last := recs[len(recs)-1]; last.Kind != "end" {
		t.Errorf("trace not terminated: last record %+v", last)
	}
}

func TestTraceKindsFiltersJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if _, err := runCLI(t, "-protocol", "ears", "-n", "15",
		"-traceout", path, "-trace-kinds", "send,crash", "-q"); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := ugf.ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("filter kept nothing")
	}
	for _, r := range recs {
		if r.Kind != "send" && r.Kind != "crash" {
			t.Fatalf("kind %q escaped the -trace-kinds send,crash filter", r.Kind)
		}
	}
}

func TestStatsFlag(t *testing.T) {
	out, err := runCLI(t, "-protocol", "push-pull", "-n", "20", "-stats")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"engine stats:", "scheduler:", "messages:", "pressure:",
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

func TestErrors(t *testing.T) {
	cases := [][]string{
		{"-protocol", "bogus"},
		{"-adversary", "bogus"},
		{"-n", "0"},
		{"-definitely-not-a-flag"},
		{"-trace-kinds", "bogus"},
		// The streaming-observability flags are single-run only.
		{"-runs", "3", "-stats"},
		{"-runs", "3", "-trace"},
		{"-runs", "3", "-traceout", "x.jsonl"},
	}
	for _, args := range cases {
		if _, err := runCLI(t, args...); err == nil {
			t.Errorf("args %v: no error", args)
		}
	}
}
