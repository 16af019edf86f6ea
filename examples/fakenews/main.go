// Fake-news containment: the motivating scenario of the paper's
// introduction. A social platform's processes spread rumors with an
// epidemic protocol (EARS); a moderation system that can suspend (crash)
// or throttle (delay) a bounded number of accounts plays the Universal
// Gossip Fighter and tries to hamper the spread.
//
// The program sweeps the moderation budget F and shows how containment
// strength scales: the dissemination is forced from logarithmic time and
// quasi-linear traffic toward linear time or quadratic traffic.
//
//	go run ./examples/fakenews
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
		network = 150 // accounts in the network
		runs    = 12  // repetitions per budget
	)

	table := &plot.Table{
		Title: fmt.Sprintf("Containing an epidemic rumor (EARS, N = %d accounts, %d runs)",
			network, runs),
		Columns: []string{
			"moderation budget F", "median rounds T(O)", "vs baseline",
			"median traffic M(O)", "vs baseline",
		},
	}

	baselineT, baselineM := measure(network, 0, nil, runs)
	table.AddRow("none (baseline)", baselineT, "1.0x", baselineM, "1.0x")

	for _, frac := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
		f := int(frac * network)
		t, m := measure(network, f, ugf.UGF{FixedK: 1, FixedL: 1}, runs)
		table.AddRow(
			fmt.Sprintf("%d accounts (%.0f%%)", f, frac*100),
			t, fmt.Sprintf("%.1fx", t/baselineT),
			m, fmt.Sprintf("%.1fx", m/baselineM),
		)
	}

	if err := table.Text(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println("The moderator needs no knowledge of the spreading protocol: UGF draws one")
	fmt.Println("of its strategies at random each run, and on average the rumor's spread is")
	fmt.Println("slowed or its cost inflated regardless of how the protocol behaves.")
}

// measure returns the median time and message complexity of runs
// repetitions of EARS under the given adversary.
func measure(n, f int, adv ugf.Adversary, runs int) (medT, medM float64) {
	results, err := runner.ExecuteContext(context.Background(), []runner.Spec{{
		Name: "fakenews",
		Base: ugf.Config{N: n, F: f, Protocol: ugf.EARS{}, Adversary: adv},
		Runs: runs, BaseSeed: 42,
	}}, runner.Options{})
	if err != nil {
		log.Fatal(err)
	}
	outs := results[0].Outcomes
	return stats.Median(runner.Times(outs)), stats.Median(runner.Messages(outs))
}
