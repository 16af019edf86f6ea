// Command ugfsim runs single gossip-dissemination scenarios under attack
// by the Universal Gossip Fighter (or any other adversary of the library)
// and reports the paper's complexity measures.
//
// Scenarios can also be given as canonical specs (-spec), the same
// serializable run descriptions the sweep service caches and exchanges:
// parameterized protocols and adversaries, fault plans, and stall windows
// in one JSON value, validated against the registries' schemas.
//
// Examples:
//
//	ugfsim -protocol ears -adversary ugf -n 100 -f 30
//	ugfsim -protocol push-pull -adversary strategy-2.1.1 -n 200 -f 60 -runs 20
//	ugfsim -protocol sears -n 50 -f 15 -trace
//	ugfsim -spec '{"protocol":"sears","protocol_params":{"epsilon":0.25},"n":50,"f":15,"seed":7}'
//	ugfsim -spec @scenario.json -runs 20
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/ugf-sim/ugf"
	"github.com/ugf-sim/ugf/internal/cliflags"
	"github.com/ugf-sim/ugf/internal/live"
	"github.com/ugf-sim/ugf/internal/plot"
	"github.com/ugf-sim/ugf/internal/runner"
	"github.com/ugf-sim/ugf/internal/stats"
	"github.com/ugf-sim/ugf/internal/xrand"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ugfsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ugfsim", flag.ContinueOnError)
	var common cliflags.Common
	common.Register(fs)
	var (
		protoName = fs.String("protocol", "push-pull",
			"gossip protocol: "+strings.Join(ugf.ProtocolNames(), "|"))
		advName = fs.String("adversary", "none",
			"adversary: "+strings.Join(ugf.AdversaryNames(), "|"))
		n          = fs.Int("n", 100, "number of processes N")
		f          = fs.Int("f", -1, "crash budget F (default 0.3N)")
		seed       = fs.Uint64("seed", 1, "random seed")
		specArg    = fs.String("spec", "", "canonical run spec (inline JSON or @file); replaces -protocol/-adversary/-n/-f/-seed/-faults/-stall-window")
		liveMode   = fs.Bool("live", false, "execute as real networked nodes (live-transport runtime) instead of the simulator")
		runs       = fs.Int("runs", 1, "repetitions (summary statistics when > 1)")
		workers    = fs.Int("workers", 0, "parallel runs (0: GOMAXPROCS)")
		trace      = fs.Bool("trace", false, "stream the event trace as text (runs=1 only)")
		traceOut   = fs.String("traceout", "", "stream the event trace to this JSONL file (runs=1 only)")
		quiet      = fs.Bool("q", false, "print outcome line(s) only")
		asJSON     = fs.Bool("json", false, "emit outcomes as JSON lines instead of text")
		curve      = fs.Bool("curve", false, "print the dissemination curve (runs=1 only)")
		curveEvery = fs.Int64("curve-every", 1, "global steps between curve samples")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := common.Validate(*trace || *traceOut != ""); err != nil {
		return err
	}
	if *liveMode {
		if err := cliflags.ValidateLiveMode(fs); err != nil {
			return err
		}
		if *curve {
			return fmt.Errorf("-curve is simulator-only: the live runtime has no snapshot sampler")
		}
	}

	var cfg ugf.Config
	var seriesName string
	if *specArg != "" {
		replaced := map[string]bool{
			"protocol": true, "adversary": true, "n": true, "f": true, "seed": true,
			"faults": true, "topology": true, "stall-window": true,
			"max-events": true,
		}
		var conflict string
		fs.Visit(func(fl *flag.Flag) {
			if replaced[fl.Name] {
				conflict = fl.Name
			}
		})
		if conflict != "" {
			return fmt.Errorf("-spec replaces -%s; put the value in the spec instead", conflict)
		}
		data := []byte(*specArg)
		if strings.HasPrefix(*specArg, "@") {
			var err error
			data, err = os.ReadFile((*specArg)[1:])
			if err != nil {
				return err
			}
		}
		sp, err := ugf.ParseSpec(data)
		if err != nil {
			return err
		}
		cfg, err = sp.Config()
		if err != nil {
			return err
		}
		adversaryLabel := sp.Adversary
		if adversaryLabel == "" {
			adversaryLabel = "none"
		}
		seriesName = sp.Protocol + "/" + adversaryLabel
		*seed = cfg.Seed
	} else {
		proto, ok := ugf.ProtocolByName(*protoName)
		if !ok {
			return fmt.Errorf("unknown protocol %q (have %s)", *protoName, strings.Join(ugf.ProtocolNames(), ", "))
		}
		adv, ok := ugf.AdversaryByName(*advName)
		if !ok {
			return fmt.Errorf("unknown adversary %q (have %s)", *advName, strings.Join(ugf.AdversaryNames(), ", "))
		}
		if *n < 1 {
			return fmt.Errorf("n = %d, need ≥ 1", *n)
		}
		budget := *f
		if budget < 0 {
			budget = int(0.3 * float64(*n))
		}
		cfg = ugf.Config{N: *n, F: budget, Protocol: proto, Adversary: adv, Seed: *seed}
		seriesName = *protoName + "/" + *advName
	}
	if err := common.Overlay(&cfg); err != nil {
		return err
	}

	emit := func(o ugf.Outcome) error {
		if *asJSON {
			return json.NewEncoder(out).Encode(o)
		}
		_, err := fmt.Fprintln(out, o)
		return err
	}

	kinds, err := common.KindMask()
	if err != nil {
		return err
	}

	if *runs <= 1 {
		// Traces stream as the engine produces them — text to stdout, JSONL
		// to -traceout — so even huge runs never buffer events in memory.
		var sinks []ugf.TraceSink
		if *trace {
			sinks = append(sinks, ugf.FuncSink(func(ev ugf.TraceEvent) {
				fmt.Fprintln(out, ev)
			}))
		}
		if *traceOut != "" {
			jl, err := ugf.CreateJSONLTrace(*traceOut)
			if err != nil {
				return err
			}
			sinks = append(sinks, jl)
		}
		if len(sinks) > 0 {
			var sink ugf.TraceSink = ugf.MultiTrace(sinks...)
			if kinds != 0 {
				sink = ugf.TraceFilter{Kinds: kinds}.Sink(sink)
			}
			cfg.Trace = sink
		}
		if *curve {
			cfg.SampleEvery = ugf.Step(*curveEvery)
			cfg.Sample = func(s ugf.Snapshot) {
				fmt.Fprintf(out, "t=%-8d coverage=%.3f awake=%-4d M=%d\n",
					s.Now, s.Coverage, s.AwakeCorrect, s.Messages)
			}
		}
		o, err := runOnce(cfg, *liveMode)
		if err != nil {
			return err
		}
		if cfg.Trace != nil {
			if cerr := ugf.CloseTrace(cfg.Trace); cerr != nil {
				return cerr
			}
		}
		if common.Stats {
			fmt.Fprintln(out, "engine stats:")
			cliflags.PrintStats(out, &o.Stats)
		}
		return emit(o)
	}

	if *trace || *traceOut != "" || common.Stats {
		return fmt.Errorf("-trace, -traceout and -stats need runs=1 (got -runs %d)", *runs)
	}
	var outs []ugf.Outcome
	if *liveMode {
		// Live repetitions run serially — each one is a real networked
		// system of goroutine nodes — with the runner's per-run seed
		// derivation, so run i of a scenario is the same execution a
		// simulated sweep would label run i.
		outs = make([]ugf.Outcome, *runs)
		for i := range outs {
			rcfg := cfg
			rcfg.Seed = xrand.Derive(*seed, uint64(i))
			o, err := runOnce(rcfg, true)
			if err != nil {
				return err
			}
			outs[i] = o
		}
	} else {
		specs := []runner.Spec{{
			Name: seriesName,
			Base: cfg,
			Runs: *runs, BaseSeed: *seed,
		}}
		results, err := runner.ExecuteContext(context.Background(), specs, runner.Options{Workers: *workers})
		if err != nil {
			return err
		}
		outs = results[0].Outcomes
	}
	if !*quiet {
		for _, o := range outs {
			if err := emit(o); err != nil {
				return err
			}
		}
	}
	if *asJSON {
		return nil // JSON mode emits machine-readable lines only
	}
	table := &plot.Table{
		Title:   fmt.Sprintf("%s: N=%d F=%d, %d runs", seriesName, cfg.N, cfg.F, *runs),
		Columns: []string{"metric", "median", "Q1", "Q3", "mean", "min", "max"},
	}
	for _, m := range []struct {
		name string
		xs   []float64
	}{
		{"time T(O)", runner.Times(outs)},
		{"messages M(O)", runner.Messages(outs)},
	} {
		s := stats.Summarize(m.xs)
		table.AddRow(m.name, s.Median, s.Q1, s.Q3, s.Mean, s.Min, s.Max)
	}
	if err := table.Text(out); err != nil {
		return err
	}
	fmt.Fprintf(out, "rumor gathering: %.0f%%   cutoffs: %.0f%%   stalls: %.0f%%\n",
		100*runner.GatheredRate(outs), 100*runner.CutoffRate(outs), 100*runner.StalledRate(outs))
	labels := map[string]int{}
	for _, o := range outs {
		if o.Strategy != "" {
			labels[o.Strategy]++
		}
	}
	if len(labels) > 0 {
		fmt.Fprintf(out, "strategies drawn: ")
		first := true
		for _, o := range []string{"1", "2.1.0", "2.1.1"} {
			if c, ok := labels[o]; ok {
				if !first {
					fmt.Fprint(out, ", ")
				}
				fmt.Fprintf(out, "%s×%d", o, c)
				first = false
				delete(labels, o)
			}
		}
		for lbl, c := range labels {
			if !first {
				fmt.Fprint(out, ", ")
			}
			fmt.Fprintf(out, "%s×%d", lbl, c)
			first = false
		}
		fmt.Fprintln(out)
	}
	return nil
}

// runOnce dispatches one configured run to the simulator or, under
// -live, to the live-transport runtime through the config projection
// (which rejects simulator-only features with a structured error).
func runOnce(cfg ugf.Config, liveMode bool) (ugf.Outcome, error) {
	if !liveMode {
		return ugf.Run(cfg)
	}
	lc, err := live.FromSimConfig(cfg)
	if err != nil {
		return ugf.Outcome{}, err
	}
	return live.Run(lc)
}
