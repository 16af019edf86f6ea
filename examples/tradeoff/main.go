// Theorem 1 in practice: a protocol that tries to undercut quadratic
// message complexity by a factor α pays for it under UGF — with time, or
// with failed disseminations.
//
// The program sweeps α over the budget-capped EARS family (per-process
// send budget ⌈(N−1)/α⌉) under UGF and prints the measured trade-off.
//
//	go run ./examples/tradeoff
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"github.com/ugf-sim/ugf"
	"github.com/ugf-sim/ugf/internal/plot"
	"github.com/ugf-sim/ugf/internal/runner"
	"github.com/ugf-sim/ugf/internal/stats"
)

func main() {
	const (
		n    = 80
		f    = 24
		runs = 16
	)

	table := &plot.Table{
		Title: fmt.Sprintf(
			"Message budget vs dissemination quality under UGF (N=%d, F=%d, %d runs)", n, f, runs),
		Columns: []string{"α", "budget/process", "median M(O)", "M/N²", "median T(O)", "gathering"},
	}

	for _, alpha := range []int{1, 2, 4, 8, 16} {
		proto := ugf.BudgetCapped{Alpha: alpha}
		results, err := runner.ExecuteContext(context.Background(), []runner.Spec{{
			Name: fmt.Sprintf("alpha=%d", alpha),
			Base: ugf.Config{
				N: n, F: f,
				Protocol:  proto,
				Adversary: ugf.UGF{FixedK: 1, FixedL: 1},
			},
			Runs: runs, BaseSeed: 2022,
		}}, runner.Options{})
		if err != nil {
			log.Fatal(err)
		}
		outs := results[0].Outcomes
		medM := stats.Median(runner.Messages(outs))
		medT := stats.Median(runner.Times(outs))
		table.AddRow(
			alpha,
			proto.Budget(n),
			medM,
			fmt.Sprintf("%.3f", medM/float64(n*n)),
			medT,
			fmt.Sprintf("%.0f%%", 100*runner.GatheredRate(outs)),
		)
	}

	if err := table.Text(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println("Reading the table: larger α shrinks message volume as intended, but under")
	fmt.Println("UGF the saved messages were exactly the redundancy that carried the rumor")
	fmt.Println("past the attack — rumor gathering decays, which is the empirical face of")
	fmt.Println("Theorem 1's E[T] = Ω(αF) or E[M] = Ω(N + F²/log²_τ(αF)) dichotomy.")
}
