// Command benchmark is the repo's one benchmark for the whole stack. One run
// drives four legs — a local sweep of the paper's grid, engine-scale runs, a
// coordinator sweep over loopback HTTP, and live clusters over channels and
// TCP — only through the public functions of the repo's packages, checks
// every output, and prints every metric of BENCHMARK.json by name.
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bash benchmark/run.sh -compare a.jsonl b.jsonl
//
// See README.md beside this file for the glossary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// environment is recorded with every output: numbers from different boxes,
// toolchains or commits do not compare.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Smoke      bool   `json:"smoke,omitempty"`
	Network    string `json:"network"`
}

func currentEnvironment(seed uint64, seconds int, smokeMode bool) environment {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	commit := "unknown" // a checkout need not be a git repository
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GOGC: gogc,
		GoVersion: runtime.Version(), Commit: commit, Seed: seed, Seconds: seconds, Smoke: smokeMode,
		Network: "loopback only: the TCP and HTTP legs never leave the host"}
}

// metricValue is one metric as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricSummary is one metric of a run as reports keep it: the median over
// the run's rounds, which the result line carries, and the quartiles.
type metricSummary struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// report is one run as -report appends it and -compare reads it.
type report struct {
	Workload string                   `json:"workload"`
	Trace    bool                     `json:"trace"`
	Env      environment              `json:"env"`
	Result   result                   `json:"result"`
	Metrics  map[string]metricSummary `json:"metrics"`
	Counts   map[string]int64         `json:"counts"`
	Digest   string                   `json:"outcome_digest"`
	Failures []string                 `json:"failures,omitempty"`
}

// options is one invocation of a workload.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	smoke    bool
	outDir   string
}

// execute runs one workload and returns its report and the metrics
// BENCHMARK.json declares for that kind of run. An error means the run could
// not start; failed operations are in the report.
func execute(o options) (report, []metricDecl, error) {
	w, ok := workloadByName(o.workload)
	if !ok {
		return report{}, nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	decl, err := loadDeclaration()
	if err != nil {
		return report{}, nil, err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return report{}, nil, err
	}
	dir, err := os.MkdirTemp(o.outDir, "scratch-")
	if err != nil {
		return report{}, nil, err
	}
	defer os.RemoveAll(dir)

	b := newBench(w, o.seed, runtime.NumCPU(), o.smoke, dir)
	rep := report{Workload: w.name, Trace: o.trace, Env: currentEnvironment(o.seed, o.seconds, o.smoke)}
	var declared []metricDecl
	if o.trace {
		declared = decl.PerLayer
		b.runTraced(filepath.Join(o.outDir, w.name+".trace.json"), rep.Env)
	} else {
		declared = decl.EndToEnd
		b.runMeasured(time.Duration(o.seconds) * time.Second)
	}

	// Every declared metric must have been measured, and nothing else.
	rep.Metrics = make(map[string]metricSummary)
	rep.Result.Metrics = make(map[string]metricValue)
	for _, d := range declared {
		s, ok := b.vals[d.Name]
		if !ok {
			b.failf("metric %s was not measured", d.Name)
			continue
		}
		q1, med, q3 := s.quartiles()
		rep.Metrics[d.Name] = metricSummary{Value: med, Unit: d.Unit, Q1: q1, Q3: q3, N: len(s)}
		rep.Result.Metrics[d.Name] = metricValue{med, d.Unit}
	}
	for name := range b.vals {
		if _, ok := rep.Metrics[name]; !ok {
			b.failf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
	rep.Result.Attempted, rep.Result.Failed = b.attempted, b.failed
	rep.Result.Correct = b.failed == 0
	rep.Counts, rep.Digest, rep.Failures = b.counts, b.digestString(), b.failures
	return rep, declared, nil
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "seed every input is derived from")
	flag.IntVar(&o.seconds, "seconds", 26, "how long the run measures")
	flag.IntVar(&trace, "trace", 0, "1: the traced run (per-layer metrics and <outdir>/<workload>.trace.json)")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny sizes: seconds, not minutes, for all four workloads")
	flag.StringVar(&o.outDir, "outdir", filepath.Join("benchmark", "out"), "directory for scratch files and the trace file")
	reportPath := flag.String("report", "", "append this run as one JSON line to the file")
	compare := flag.Bool("compare", false, "compare two report files: -compare a.jsonl b.jsonl")
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare takes two report files")
		}
		if err := compareReports(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatalf("compare: %v", err)
		}
		return
	}
	if o.seconds < 1 || flag.NArg() != 0 {
		fatalf("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>")
	}
	o.trace = trace != 0
	rep, declared, err := execute(o)
	if err != nil {
		fatalf("%v", err)
	}
	printReport(rep, declared)
	if *reportPath != "" {
		if err := appendReport(*reportPath, rep); err != nil {
			fatalf("%v", err)
		}
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !rep.Result.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// metricDecl is one metric as BENCHMARK.json declares it.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// declaration is BENCHMARK.json, the ledger's contract: the program prints
// exactly the metrics it lists, and -compare takes directions and bounds
// from it.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

// loadDeclaration finds BENCHMARK.json in the working directory or its
// parent (the test runs inside benchmark/).
func loadDeclaration() (declaration, error) {
	var d declaration
	for _, path := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		if err := json.Unmarshal(data, &d); err != nil {
			return d, fmt.Errorf("%s: %w", path, err)
		}
		return d, nil
	}
	return d, fmt.Errorf("BENCHMARK.json not found: run from the root of a checkout")
}

func printReport(rep report, declared []metricDecl) {
	mode := "end-to-end"
	if rep.Trace {
		mode = "per-layer (traced)"
	}
	e := rep.Env
	fmt.Printf("workload %s, %s metrics\n", rep.Workload, mode)
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d GOGC=%s %s commit=%s seed=%d seconds=%d smoke=%v\n",
		e.NProc, e.GOMAXPROCS, e.GOGC, e.GoVersion, e.Commit, e.Seed, e.Seconds, e.Smoke)
	fmt.Printf("net: %s\n", e.Network)
	fmt.Printf("%-34s %16s %-10s %16s %16s %6s\n", "metric", "median", "unit", "q1", "q3", "n")
	for _, d := range declared {
		if m, ok := rep.Metrics[d.Name]; ok {
			fmt.Printf("%-34s %16.6g %-10s %16.6g %16.6g %6d\n", d.Name, m.Value, m.Unit, m.Q1, m.Q3, m.N)
		}
	}
	keys := make([]string, 0, len(rep.Counts))
	for k := range rep.Counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("count %-28s %d\n", k, rep.Counts[k])
	}
	fmt.Printf("outcome_digest %s\n", rep.Digest)
	fmt.Printf("ops_attempted %d\nops_failed %d\n", rep.Result.Attempted, rep.Result.Failed)
	for _, f := range rep.Failures {
		fmt.Printf("failure: %s\n", f)
	}
}

func appendReport(path string, rep report) error {
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(append(line, '\n'))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
