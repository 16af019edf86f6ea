package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// readReports reads the runs -report appended to a file, untraced ones only:
// end-to-end numbers never come from a traced run.
func readReports(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var reps []report
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			reps = append(reps, r)
		}
	}
	return reps, sc.Err()
}

// runSet is one file's runs of one workload, reduced per metric.
type runSet struct {
	runs    int
	failed  int
	metrics map[string]sample
	inRun   map[string]metricSummary // the single run's own quartiles
	exact   map[string]bool          // "digest|counts" strings seen, per seed
}

func sidesOf(reps []report) map[string]*runSet {
	out := make(map[string]*runSet)
	for _, r := range reps {
		s := out[r.Workload]
		if s == nil {
			s = &runSet{metrics: make(map[string]sample), exact: make(map[string]bool)}
			out[r.Workload] = s
		}
		s.runs++
		s.failed += r.Result.Failed
		s.inRun = r.Metrics
		for name, m := range r.Metrics {
			s.metrics[name] = append(s.metrics[name], m.Value)
		}
		counts, _ := json.Marshal(r.Counts) // map keys marshal sorted
		s.exact[fmt.Sprintf("seed %d: digest %s counts %s", r.Env.Seed, r.Digest, counts)] = true
	}
	return out
}

// quartilesOf is a side's Q1, median and Q3 of a metric: over its runs, or,
// with a single run, that run's own quartiles over its rounds.
func (s *runSet) quartilesOf(metric string) (q1, med, q3 float64) {
	if s.runs == 1 {
		m := s.inRun[metric]
		return m.Q1, m.Value, m.Q3
	}
	return s.metrics[metric].quartiles()
}

// compareReports prints, per workload and end-to-end metric, both sides'
// medians and quartiles, the change from a to b, the bound BENCHMARK.json
// fixes, and a verdict:
//
//	better      b's median is better than a's by more than a's own spread
//	worse       b's median is worse than a's by more than the bound
//	unresolved  either side's spread is wider than the bound
//	same        none of the above
//
// and whether the exact counts and outcome digests agree for equal seeds.
func compareReports(w io.Writer, pathA, pathB string) error {
	decl, err := loadDeclaration()
	if err != nil {
		return err
	}
	a, err := readReports(pathA)
	if err != nil {
		return err
	}
	bb, err := readReports(pathB)
	if err != nil {
		return err
	}
	sa, sb := sidesOf(a), sidesOf(bb)
	fmt.Fprintf(w, "a = %s, b = %s\n", pathA, pathB)
	for _, wl := range decl.Workloads {
		x, y := sa[wl.Name], sb[wl.Name]
		if x == nil || y == nil {
			fmt.Fprintf(w, "\n%s: not in both files\n", wl.Name)
			continue
		}
		fmt.Fprintf(w, "\n%s: %d runs (%d failed ops) vs %d runs (%d failed ops)\n", wl.Name, x.runs, x.failed, y.runs, y.failed)
		fmt.Fprintf(w, "%-30s %-8s %12s %25s %12s %25s %9s %7s  %s\n", "metric", "unit", "a median", "a q1..q3", "b median", "b q1..q3", "delta", "bound", "verdict")
		for _, d := range decl.EndToEnd {
			aq1, am, aq3 := x.quartilesOf(d.Name)
			bq1, bm, bq3 := y.quartilesOf(d.Name)
			if am == 0 {
				fmt.Fprintf(w, "%-30s missing\n", d.Name)
				continue
			}
			delta := (bm - am) / am
			gain := delta // positive when b is better
			if d.Better == "lower" {
				gain = -delta
			}
			spreadA, spreadB := (aq3-aq1)/am, (bq3-bq1)/bm
			verdict := "same"
			switch {
			case spreadA > d.Bound || spreadB > d.Bound:
				verdict = "unresolved"
			case gain < -d.Bound:
				verdict = "worse"
			case gain > spreadA && gain > 0:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-30s %-8s %12.6g %12.6g..%-11.6g %12.6g %12.6g..%-11.6g %+8.2f%% %6.0f%%  %s\n",
				d.Name, d.Unit, am, aq1, aq3, bm, bq1, bq3, 100*delta, 100*d.Bound, verdict)
		}
		var only []string
		for k := range x.exact {
			if !y.exact[k] {
				only = append(only, "a only: "+k)
			}
		}
		for k := range y.exact {
			if !x.exact[k] {
				only = append(only, "b only: "+k)
			}
		}
		sort.Strings(only)
		if len(only) == 0 {
			fmt.Fprintf(w, "counts and outcome digests: identical on both sides\n")
		}
		for _, line := range only {
			fmt.Fprintf(w, "counts and outcome digests differ: %s\n", line)
		}
	}
	return nil
}
