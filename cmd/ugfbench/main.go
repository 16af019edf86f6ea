// Command ugfbench regenerates the figures and tables of "The Universal
// Gossip Fighter": one experiment per paper artifact (see DESIGN.md §3).
// It prints text tables, ASCII charts and machine-checked shape notes, and
// optionally writes CSV and Markdown files per experiment. Whatever -exp
// selects is planned first and executed as one batch, in which a run two
// experiments share is computed once (DESIGN.md §3).
//
// The harness is fault-tolerant (DESIGN.md §6): a panicking run is
// isolated and reported instead of crashing the sweep, SIGINT stops the
// sweep cleanly, and with -out every finished run is journaled in one
// <exp>.journal.jsonl so that -resume continues an interrupted sweep
// without recomputation and reproduces byte-identical outputs.
//
// Observability (DESIGN.md §7): a live status line on stderr tracks
// completed/failed/flaky runs with a journal-aware ETA; -stats prints the
// engine's aggregated run-level counters per experiment; -trace streams
// one JSONL event trace per run to disk; -debugaddr serves expvar
// (including the live progress snapshot) and pprof over HTTP while a long
// sweep runs.
//
// Distributed sweeps (DESIGN.md §13): -serve turns the -debugaddr
// listener into a sweep coordinator carrying a content-addressed result
// cache and an HTTP job API; -worker joins a coordinator and executes
// leased runs; -coord routes an ordinary invocation through a coordinator
// instead of the local pool — one sweep for the whole batch — with
// byte-identical artifacts.
//
// Examples:
//
//	ugfbench -list
//	ugfbench -exp fig3b                      # one panel, quick fidelity
//	ugfbench -exp all -fidelity medium -out results/
//	ugfbench -exp fig3e -fidelity full       # the paper's exact setting
//	ugfbench -exp all -fidelity full -out results/ -resume   # after ^C
//	ugfbench -exp fig3a -stats -debugaddr localhost:6060
//	ugfbench -exp example1 -trace traces/ -trace-kinds send,crash
//	ugfbench -serve -debugaddr :6060 -cachedir cache/        # coordinator
//	ugfbench -worker http://coord:6060                       # on each machine
//	ugfbench -exp fig3e -fidelity full -coord http://coord:6060 -out results/
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the -debugaddr server
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/ugf-sim/ugf/internal/cliflags"
	"github.com/ugf-sim/ugf/internal/experiments"
	"github.com/ugf-sim/ugf/internal/runner"
	"github.com/ugf-sim/ugf/internal/service"
	"github.com/ugf-sim/ugf/internal/sim"
	simtrace "github.com/ugf-sim/ugf/internal/sim/trace"
)

// currentProgress holds the running batch's latest progress snapshot
// for the expvar endpoint (-debugaddr): `ugfbench_progress` serves it as
// JSON alongside the standard runtime vars.
var currentProgress atomic.Pointer[runner.Snapshot]

func init() {
	expvar.Publish("ugfbench_progress", expvar.Func(func() any {
		if s := currentProgress.Load(); s != nil {
			return *s
		}
		return runner.Snapshot{}
	}))
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ugfbench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ugfbench", flag.ContinueOnError)
	var common cliflags.Common
	common.Register(fs)
	var (
		expID = fs.String("exp", "all",
			"experiment id or \"all\": "+strings.Join(experiments.IDs(), "|"))
		fidelity    = fs.String("fidelity", "quick", "quick|medium|full (full = the paper's 50-run grid)")
		outDir      = fs.String("out", "", "directory for CSV and Markdown output (optional)")
		summary     = fs.String("summary", "", "write a combined claims-status Markdown table to this file")
		seed        = fs.Uint64("seed", 0, "base seed (0: default 2022)")
		workers     = fs.Int("workers", 0, "parallel runs (0: GOMAXPROCS); with -worker, concurrent leases")
		list        = fs.Bool("list", false, "list experiments and exit")
		progress    = fs.Bool("progress", true, "print run progress")
		cpuprofile  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile  = fs.String("memprofile", "", "write a heap profile to this file on exit")
		resume      = fs.Bool("resume", false, "reuse journaled runs from a previous interrupted sweep (requires -out)")
		maxwall     = fs.Duration("maxwall", 0, "per-run wall-clock watchdog; runs over the limit count as cutoffs (0: none)")
		cancelAfter = fs.Int("cancelafter", 0, "cancel the sweep after this many completed runs — a deterministic SIGINT for tests (0: never)")
		traceDir    = fs.String("trace", "", "stream one JSONL event trace per run into this directory (can be large)")
		debugAddr   = fs.String("debugaddr", "", "serve expvar (/debug/vars, incl. live progress) and pprof (/debug/pprof) on this HTTP address")
		serve       = fs.Bool("serve", false, "run as a sweep coordinator: mount the job API on -debugaddr and wait for workers and submissions")
		workerURL   = fs.String("worker", "", "run as a sweep worker against the coordinator at this URL (e.g. http://host:6060)")
		coordURL    = fs.String("coord", "", "execute experiments through the coordinator at this URL instead of the local pool")
		cacheDir    = fs.String("cachedir", "", "with -serve, persist the content-addressed result cache in this directory (cache.jsonl)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := common.Validate(*traceDir != ""); err != nil {
		return err
	}
	if *resume && *outDir == "" {
		return errors.New("-resume requires -out (the run journal lives in the output directory)")
	}
	modes := 0
	for _, on := range []bool{*serve, *workerURL != "", *coordURL != ""} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		return errors.New("-serve, -worker, and -coord are mutually exclusive")
	}
	if *serve && *debugAddr == "" {
		return errors.New("-serve requires -debugaddr (the job API shares its listener)")
	}
	if *cacheDir != "" && !*serve {
		return errors.New("-cachedir only applies to -serve (workers and clients hold no cache)")
	}
	kindMask, err := common.KindMask()
	if err != nil {
		return err
	}
	if *debugAddr != "" {
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("debugaddr: %w", err)
		}
		defer ln.Close()
		fmt.Fprintf(os.Stderr, "ugfbench: debug endpoint on http://%s/debug/vars and /debug/pprof/\n", ln.Addr())
		if *serve {
			coord, err := newCoordinator(*cacheDir)
			if err != nil {
				return err
			}
			defer coord.Cache().Close()
			// The job API shares the debug listener: one address carries
			// observability and jobs.
			service.Register(http.DefaultServeMux, coord)
			fmt.Fprintf(os.Stderr, "ugfbench: sweep coordinator on http://%s/v1/\n", ln.Addr())
			go http.Serve(ln, nil)
			<-ctx.Done()
			return nil
		}
		// DefaultServeMux carries expvar's and net/http/pprof's handlers.
		go http.Serve(ln, nil)
	}
	if *workerURL != "" {
		return runWorker(ctx, *workerURL, *workers)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ugfbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // up-to-date live-object statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "ugfbench: memprofile:", err)
			}
		}()
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(out, "%-12s %s\n", e.ID, e.Title)
		}
		return nil
	}

	fid, err := experiments.ParseFidelity(*fidelity)
	if err != nil {
		return err
	}

	var selected []experiments.Experiment
	if *expID == "all" {
		selected = experiments.All()
	} else {
		e, ok := experiments.ByID(*expID)
		if !ok {
			return fmt.Errorf("unknown experiment %q (have %s)", *expID, strings.Join(experiments.IDs(), ", "))
		}
		selected = []experiments.Experiment{e}
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			return err
		}
	}

	label := *expID // names the progress line and the batch journal
	prog := runner.NewProgress(nil, label)
	if *progress {
		prog.W = os.Stderr
	}
	// The per-run feed: the progress line, the expvar snapshot, and
	// -cancelafter, which turns "N runs finished" into a cancellation —
	// a deterministic stand-in for SIGINT.
	onRun := func(u runner.RunUpdate) {
		prog.OnRun(u)
		snap := prog.Snapshot()
		currentProgress.Store(&snap)
		if u.Done == *cancelAfter {
			cancel()
		}
	}
	opts := runner.Options{Workers: *workers, OnRun: onRun, MaxWall: *maxwall}
	if *traceDir != "" {
		opts.Trace = traceFactory(*traceDir, kindMask)
	}
	var j *runner.Journal
	if *outDir != "" {
		j, err = runner.OpenJournal(filepath.Join(*outDir, label+".journal.jsonl"), *resume)
		if err != nil {
			return err
		}
		opts.Journal = j
	}
	exec := func(ctx context.Context, specs []runner.Spec) ([]runner.Result, error) {
		for i := range specs {
			if err := common.Overlay(&specs[i].Base); err != nil {
				return nil, err
			}
		}
		if *coordURL != "" {
			return service.ExecuteSpecs(ctx, service.NewClient(*coordURL), specs, opts)
		}
		return runner.ExecuteContext(ctx, specs, opts)
	}
	start := time.Now()
	reports, err := experiments.Run(ctx, experiments.Config{Fidelity: fid, BaseSeed: *seed}, selected, exec)
	prog.Finish()
	wall := time.Since(start)
	if j != nil {
		if cerr := j.Close(); cerr != nil && err == nil {
			err = cerr
		}
		if n, werr := j.WriteErrors(); n > 0 {
			fmt.Fprintf(os.Stderr, "ugfbench: %d run(s) could not be journaled: %v; -resume will recompute them\n", n, werr)
		}
	}
	if err != nil {
		if errors.Is(err, context.Canceled) && j != nil {
			return fmt.Errorf("interrupted — %d finished run(s) are journaled in %s; rerun with -resume to continue: %w",
				j.Len(), j.Path(), err)
		}
		return err
	}
	if j != nil && j.ErrorCount() == 0 {
		// A clean sweep no longer needs its journal; one that recorded
		// deterministic failures keeps it as the forensic record.
		if err := j.Remove(); err != nil {
			return err
		}
	}
	for _, rep := range reports {
		if err := render(out, rep, wall); err != nil {
			return err
		}
		if common.Stats {
			fmt.Fprintf(out, "engine stats over %d run(s):\n", rep.EngineRuns)
			cliflags.PrintStats(out, &rep.Engine)
			fmt.Fprintln(out)
		}
		if *outDir != "" {
			if err := writeFiles(*outDir, rep); err != nil {
				return err
			}
		}
	}
	if *summary != "" {
		if err := writeSummary(*summary, reports); err != nil {
			return err
		}
	}
	return nil
}

// newCoordinator builds the -serve coordinator, backed by a persistent
// result cache when -cachedir is set.
func newCoordinator(cacheDir string) (*service.Coordinator, error) {
	var opts service.Options
	if cacheDir != "" {
		cache, err := service.NewCache(cacheDir)
		if err != nil {
			return nil, fmt.Errorf("cachedir: %w", err)
		}
		opts.Cache = cache
	}
	return service.NewCoordinator(opts), nil
}

// runWorker executes leased runs against a remote coordinator until
// interrupted; -workers bounds concurrent leases (0: GOMAXPROCS).
func runWorker(ctx context.Context, coordURL string, workers int) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(os.Stderr, "ugfbench: worker: %d lease slot(s) against %s\n", workers, coordURL)
	var done atomic.Int64
	err := service.RunWorker(ctx, service.NewClient(coordURL), service.WorkerOptions{
		Concurrency: workers,
		OnRun: func(lease *service.Lease, res service.CompleteRequest) {
			n := done.Add(1)
			status := "ok"
			if res.ConfigError != "" || res.Err != nil {
				status = "failed"
			}
			fmt.Fprintf(os.Stderr, "ugfbench: worker: run %d (%s seed=%d) %s\n", n, lease.Spec.Protocol, lease.Spec.Seed, status)
		},
	})
	if errors.Is(err, context.Canceled) {
		return nil // clean shutdown
	}
	return err
}

// traceFactory builds the per-run trace-sink factory for -trace: one JSONL
// file per computed run, named after the experiment, series, and run index
// (experiments.Run names a batch's series "<experiment>/<series>"),
// filtered to the -trace-kinds mask. A file that cannot be created
// disables tracing for that run (reported on stderr) without failing it.
func traceFactory(dir string, kinds sim.KindMask) func(runner.Spec, int) sim.TraceSink {
	return func(spec runner.Spec, run int) sim.TraceSink {
		exp, series, _ := strings.Cut(spec.Name, "/")
		name := fmt.Sprintf("%s_%s_run%03d.jsonl", exp, sanitizeName(series), run)
		j, err := simtrace.Create(filepath.Join(dir, name))
		if err != nil {
			fmt.Fprintf(os.Stderr, "ugfbench: trace: %v\n", err)
			return nil
		}
		if kinds != 0 {
			return simtrace.Filter{Kinds: kinds}.Sink(j)
		}
		return j
	}
}

// sanitizeName makes a spec name filesystem-safe ("ears/ugf" → "ears-ugf").
func sanitizeName(s string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case '/', '\\', ':', ' ':
			return '-'
		}
		return r
	}, s)
}

// atomicWrite streams the file through a temp file in the target
// directory and renames it into place, so an interrupted or failing
// ugfbench never leaves a truncated artifact where a good one (from a
// previous sweep) used to be.
func atomicWrite(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// writeSummary renders the combined claims-status table: one row per
// claim verdict found in the reports' notes.
func writeSummary(path string, reports []*experiments.Report) error {
	return atomicWrite(path, func(f io.Writer) error {
		fmt.Fprintln(f, "| experiment | claim | status |")
		fmt.Fprintln(f, "| --- | --- | --- |")
		for _, rep := range reports {
			for _, note := range rep.Notes {
				claim, status, ok := splitVerdict(note)
				if !ok {
					continue
				}
				fmt.Fprintf(f, "| `%s` | %s | %s |\n", rep.ID, claim, status)
			}
		}
		return nil
	})
}

// splitVerdict extracts (claim, status) from a note whose verdict is its
// last REPRODUCED / NOT reproduced word pair, whether it follows a colon
// ("… claim: REPRODUCED") or ends the sentence ("… evasion REPRODUCED");
// trailing commentary after the verdict stays with the claim. Notes
// without a verdict are skipped.
func splitVerdict(note string) (claim, status string, ok bool) {
	for _, v := range []string{"NOT reproduced", "REPRODUCED"} {
		if idx := strings.LastIndex(note, " "+v); idx >= 0 {
			claim = strings.TrimSuffix(note[:idx], ":")
			if rest := strings.TrimSpace(note[idx+1+len(v):]); rest != "" {
				claim += " " + rest
			}
			return claim, v, true
		}
	}
	return "", "", false
}

func render(w io.Writer, rep *experiments.Report, elapsed time.Duration) error {
	fmt.Fprintf(w, "==== %s — %s (fidelity: %s, %v) ====\n", rep.ID, rep.Title, rep.Fidelity, elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "paper: %s\n\n", rep.Paper)
	for _, t := range rep.Tables {
		if err := t.Text(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	for _, c := range rep.Charts {
		fmt.Fprintln(w, c.Render())
	}
	for _, n := range rep.Notes {
		fmt.Fprintf(w, "  - %s\n", n)
	}
	fmt.Fprintln(w)
	return nil
}

func writeFiles(dir string, rep *experiments.Report) error {
	for i, t := range rep.Tables {
		csvPath := filepath.Join(dir, fmt.Sprintf("%s_%d.csv", rep.ID, i))
		if err := atomicWrite(csvPath, t.CSV); err != nil {
			return err
		}
	}
	return atomicWrite(filepath.Join(dir, rep.ID+".md"), func(md io.Writer) error {
		fmt.Fprintf(md, "## %s — %s\n\n*Fidelity: %s.*\n\n**Paper:** %s\n\n", rep.ID, rep.Title, rep.Fidelity, rep.Paper)
		for _, t := range rep.Tables {
			if err := t.Markdown(md); err != nil {
				return err
			}
			fmt.Fprintln(md)
		}
		for _, c := range rep.Charts {
			fmt.Fprintf(md, "```\n%s```\n\n", c.Render())
		}
		fmt.Fprintln(md, "**Findings:**")
		for _, n := range rep.Notes {
			fmt.Fprintf(md, "- %s\n", n)
		}
		return nil
	})
}
