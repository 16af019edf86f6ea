package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"time"

	"github.com/ugf-sim/ugf/internal/adversary"
	"github.com/ugf-sim/ugf/internal/gossip"
	"github.com/ugf-sim/ugf/internal/plot"
	"github.com/ugf-sim/ugf/internal/runner"
	"github.com/ugf-sim/ugf/internal/sim"
	"github.com/ugf-sim/ugf/internal/stats"
	"github.com/ugf-sim/ugf/internal/xrand"
)

// The paper's evaluation grid (Sec. V-A): its three protocols against no
// adversary, UGF, and UGF's three fixed strategies.
var (
	sweepProtocols   = []string{"push-pull", "ears", "sears"}
	sweepAdversaries = []string{"none", "ugf", "strategy-1", "strategy-2.1.0", "strategy-2.1.1"}
)

const resumeReps = 5

// grid builds one runner series per (protocol, adversary, N) with
// F = ⌊0.3N⌋, each seeded from seed and its position.
func grid(protocols, adversaries []string, ns []int, runs int, seed uint64) ([]runner.Spec, error) {
	var specs []runner.Spec
	for _, pn := range protocols {
		p, ok := gossip.ByName(pn)
		if !ok {
			return nil, fmt.Errorf("unknown protocol %q", pn)
		}
		for _, an := range adversaries {
			a, ok := adversary.ByName(an)
			if !ok {
				return nil, fmt.Errorf("unknown adversary %q", an)
			}
			for _, n := range ns {
				specs = append(specs, runner.Spec{
					Name:     fmt.Sprintf("%s/%s/N=%d", pn, an, n),
					Base:     sim.Config{N: n, F: n * 3 / 10, Protocol: p, Adversary: a},
					Runs:     runs,
					BaseSeed: xrand.Derive(seed, uint64(len(specs))),
				})
			}
		}
	}
	return specs, nil
}

// summarize is what a user does with a finished sweep: per series the
// five-number summaries of T(O) and M(O), rendered as CSV. It returns the
// hash of the CSV bytes.
func summarize(res []runner.Result) (string, error) {
	t := plot.Table{Title: "sweep", Columns: []string{"series", "runs", "gathered", "T q1", "T median", "T q3", "M q1", "M median", "M q3"}}
	for _, r := range res {
		kept := r.Kept()
		ts, ms := stats.Summarize(runner.Times(kept)), stats.Summarize(runner.Messages(kept))
		t.AddRow(r.Spec.Name, len(kept), runner.GatheredRate(kept), ts.Q1, ts.Median, ts.Q3, ms.Q1, ms.Median, ms.Q3)
	}
	h := fnv.New64a()
	if err := t.CSV(h); err != nil {
		return "", err
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// sweepStats is what one cold sweep round leaves for the per-layer metrics.
type sweepStats struct {
	runs         int
	exec         time.Duration // runner.ExecuteContext alone
	runWall      sample        // Stats.Wall of each run, ms
	journalBytes int64
}

// sweepRound regenerates the grid once through the local runner with a
// fresh journal (cold), then reopens that journal and re-executes the same
// specs resumeReps times (resume). Both are timed from OpenJournal to
// Close; the cold time also covers summarising the results.
func (b *bench) sweepRound(r int, sz sizes, measured bool) (st sweepStats) {
	specs, err := grid(sweepProtocols, sweepAdversaries, sz.sweepNs, sz.sweepRuns, xrand.Derive(b.seed, legSweep, uint64(r)))
	if err != nil {
		b.failf("sweep: %v", err)
		return
	}
	path := filepath.Join(b.dir, fmt.Sprintf("sweep-%d.journal.jsonl", r))
	defer os.Remove(path)
	ctx, cancel := context.WithTimeout(context.Background(), sweepDeadline)
	defer cancel()

	execute := func(resume bool) (res []runner.Result, exec, wall time.Duration, err error) {
		t0 := time.Now()
		j, err := runner.OpenJournal(path, resume)
		if err != nil {
			return nil, 0, 0, err
		}
		t1 := time.Now()
		res, err = runner.ExecuteContext(ctx, specs, runner.Options{Workers: b.nproc, Journal: j})
		exec = time.Since(t1)
		if cerr := j.Close(); err == nil {
			err = cerr
		}
		return res, exec, time.Since(t0), err
	}

	res, exec, wall, err := execute(false)
	t0 := time.Now()
	csv, cerr := summarize(res)
	wall += time.Since(t0)
	runs, events, sends := totals(res)
	b.ops(len(specs) * sz.sweepRuns)
	if err != nil || cerr != nil {
		b.failf("sweep round %d: %v %v", r, err, cerr)
		return
	}
	cold := b.checkResults("sweep", res)
	st = sweepStats{runs: runs, exec: exec}
	for _, rr := range res {
		for _, o := range rr.Outcomes {
			w := o.Stats.Wall
			st.runWall = append(st.runWall, float64(w.Init+w.Run+w.Finalize)/1e6)
		}
	}
	if fi, err := os.Stat(path); err == nil {
		st.journalBytes = fi.Size()
	}
	if measured {
		b.record("sweep_runs_per_s", float64(runs)/wall.Seconds())
	}

	reps := resumeReps
	if !measured {
		reps = 1
	}
	for k := 0; k < reps; k++ {
		res2, _, wall2, err := execute(true)
		b.ops(runs)
		if err != nil {
			b.failf("sweep round %d resume %d: %v", r, k, err)
			continue
		}
		if !slices.Equal(cold, b.checkResults("sweep resume", res2)) {
			b.failf("sweep round %d resume %d: resumed outcomes differ from the cold ones", r, k)
		}
		if measured {
			b.record("sweep_resume_runs_per_s", float64(runs)/wall2.Seconds())
		}
	}
	if r == 0 {
		b.pin("sweep", append(cold, csv), map[string]int64{"runs": int64(runs), "events": events, "sends": sends})
	}
	return st
}
