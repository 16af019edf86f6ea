package ugf_test

// The bench harness: one benchmark per figure panel and table of the
// paper (DESIGN.md §3 maps ids to artifacts), plus the ablation benches
// DESIGN.md §8 calls out. Each experiment benchmark executes its full
// experiment at quick fidelity per iteration and reports the headline
// medians as custom metrics; `ugfbench -fidelity full` regenerates the
// paper-scale versions.

import (
	"context"
	"testing"

	"github.com/ugf-sim/ugf"
	"github.com/ugf-sim/ugf/internal/experiments"
	"github.com/ugf-sim/ugf/internal/runner"
	"github.com/ugf-sim/ugf/internal/stats"
)

func benchExperiment(b *testing.B, id string) {
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	exec := func(ctx context.Context, specs []runner.Spec) ([]runner.Result, error) {
		return runner.ExecuteContext(ctx, specs, runner.Options{})
	}
	for i := 0; i < b.N; i++ {
		reps, err := experiments.Run(context.Background(), experiments.Config{
			Fidelity: experiments.Quick,
			BaseSeed: uint64(i + 1),
		}, []experiments.Experiment{e}, exec)
		if err != nil {
			b.Fatal(err)
		}
		if len(reps[0].Tables) == 0 {
			b.Fatal("empty report")
		}
	}
}

// Figure 3 panels.

func BenchmarkFig3aPushPullTime(b *testing.B) { benchExperiment(b, "fig3a") }
func BenchmarkFig3bEARSTime(b *testing.B)     { benchExperiment(b, "fig3b") }
func BenchmarkFig3cPushPullMsg(b *testing.B)  { benchExperiment(b, "fig3c") }
func BenchmarkFig3dEARSMsg(b *testing.B)      { benchExperiment(b, "fig3d") }
func BenchmarkFig3eSEARSMsg(b *testing.B)     { benchExperiment(b, "fig3e") }

// In-text tables and extensions.

func BenchmarkTableFSweep(b *testing.B)     { benchExperiment(b, "fsweep") }
func BenchmarkTableExample1(b *testing.B)   { benchExperiment(b, "example1") }
func BenchmarkTableLemma45(b *testing.B)    { benchExperiment(b, "lemma45") }
func BenchmarkTableLemma1(b *testing.B)     { benchExperiment(b, "lemma1") }
func BenchmarkTableTradeoff(b *testing.B)   { benchExperiment(b, "tradeoff") }
func BenchmarkTableStrategies(b *testing.B) { benchExperiment(b, "strategies") }
func BenchmarkTableOblivious(b *testing.B)  { benchExperiment(b, "oblivious") }
func BenchmarkTableAdaptation(b *testing.B) { benchExperiment(b, "adaptation") }
func BenchmarkTableOmission(b *testing.B)   { benchExperiment(b, "omission") }
func BenchmarkTableTuning(b *testing.B)     { benchExperiment(b, "tuning") }

// benchAttack measures one (protocol, adversary) pair at a fixed size and
// reports the medians as custom metrics.
func benchAttack(b *testing.B, n, f int, proto ugf.Protocol, adv ugf.Adversary) {
	var medT, medM float64
	for i := 0; i < b.N; i++ {
		results, err := runner.ExecuteContext(context.Background(), []runner.Spec{{
			Name: "bench",
			Base: ugf.Config{N: n, F: f, Protocol: proto, Adversary: adv},
			Runs: 8, BaseSeed: uint64(i + 1),
		}}, runner.Options{})
		if err != nil {
			b.Fatal(err)
		}
		outs := results[0].Outcomes
		medT = stats.Median(runner.Times(outs))
		medM = stats.Median(runner.Messages(outs))
	}
	b.ReportMetric(medT, "T-median")
	b.ReportMetric(medM, "M-median")
}

// Ablation 1 (DESIGN.md §8): ζ(2)-sampled exponents vs the paper's fixed
// k = l = 1. Sampling occasionally draws far larger delays, trading a
// heavier tail for the indistinguishability guarantees of Lemmas 4–5.
func BenchmarkAblationZeta(b *testing.B) {
	const n, f = 60, 18
	b.Run("fixed-k1l1", func(b *testing.B) {
		benchAttack(b, n, f, ugf.EARS{}, ugf.UGF{FixedK: 1, FixedL: 1})
	})
	b.Run("zeta-sampled", func(b *testing.B) {
		benchAttack(b, n, f, ugf.EARS{}, ugf.UGF{})
	})
}

// Ablation 2: the online receiver-crashing of Strategy 2.k.0 vs the same
// crash volume committed obliviously. The adaptive part is what isolates
// ρ̂ — pre-committed crashes hit mostly irrelevant processes.
func BenchmarkAblationOnline(b *testing.B) {
	const n, f = 60, 18
	b.Run("online-2.1.0", func(b *testing.B) {
		benchAttack(b, n, f, ugf.EARS{}, ugf.Strategy2K0{})
	})
	b.Run("oblivious", func(b *testing.B) {
		benchAttack(b, n, f, ugf.EARS{}, ugf.Oblivious{})
	})
}

// Ablation 3: deterministic parallel stepping vs serial execution of the
// same run (identical outcomes; throughput differs with core count).
func BenchmarkEngineParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(map[int]string{1: "serial", 2: "workers-2", 4: "workers-4", 8: "workers-8"}[workers], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, err := ugf.Run(ugf.Config{
					N: 300, F: 0, Protocol: ugf.SEARS{}, Seed: uint64(i + 1),
					Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStrategy2KLDelayHeavy is the end-to-end face of the engine's
// skipped-step scheduling: Strategy 2.k.l rewrites the controlled set's
// local-step times to τᵏ and delivery times to τᵏ⁺ˡ (τ = F), so the run
// spans a huge global-step range in which almost every step is inert.
// Engine scheduling, not protocol work, dominates. The in-package
// counterpart with scripted delays is sim.BenchmarkEngineDelayHeavy.
func BenchmarkStrategy2KLDelayHeavy(b *testing.B) {
	for _, n := range []int{200, 500} {
		b.Run(map[int]string{200: "N=200", 500: "N=500"}[n], func(b *testing.B) {
			b.ReportAllocs()
			f := n / 3
			for i := 0; i < b.N; i++ {
				if _, err := ugf.Run(ugf.Config{
					N: n, F: f, Protocol: ugf.EARS{}, Adversary: ugf.Strategy2KL{K: 1, L: 1},
					Seed: uint64(i + 1),
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Baseline single-run costs per protocol.
func BenchmarkProtocolRun(b *testing.B) {
	protos := []ugf.Protocol{ugf.PushPull{}, ugf.EARS{}, ugf.SEARS{}, ugf.RoundRobin{}, ugf.Broadcast{}}
	for _, proto := range protos {
		proto := proto
		b.Run(proto.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ugf.Run(ugf.Config{N: 200, F: 60, Protocol: proto, Seed: uint64(i + 1)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
