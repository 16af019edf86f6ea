package experiments

import (
	"fmt"

	"github.com/ugf-sim/ugf/internal/gossip"
	"github.com/ugf-sim/ugf/internal/plot"
	"github.com/ugf-sim/ugf/internal/runner"
	"github.com/ugf-sim/ugf/internal/sim"
)

func init() {
	register(Experiment{
		ID:    "topology",
		Title: "Topology extension — dissemination on sparse communication graphs",
		Plan:  planTopology,
	})
}

// planTopology measures how Push-Pull and EARS degrade when the complete
// communication graph of the paper's model is replaced by sparse
// topologies: a ring (degree 2, diameter N/2), a circulant k-regular
// graph, and a seeded expander of the same degree. The protocols still
// draw partners uniformly from all N processes — they are
// topology-oblivious, as in the paper — so on a sparse graph most sends
// land on dead edges and are blocked at the send gate (Stats.
// BlockedSends); dissemination survives only through the fraction of
// draws that hit live edges. The expander row is the control: at the
// same degree as the k-regular graph, its random structure should keep
// dissemination close to it, while the ring's linear diameter stretches
// both T and M. Every sparse spec carries a stall window and an event
// cutoff — on a sparse graph a protocol can starve with neighbor
// traffic still flowing, and a starved run must classify as Stalled or
// a cutoff, never hang the sweep.
func planTopology(cfg Config) ([]runner.Spec, func([]runner.Result) (*Report, error)) {
	rep := &Report{
		ID:       "topology",
		Title:    "Dissemination on sparse communication graphs",
		Paper:    "Extension beyond the paper's complete-graph model (Section II lets every process address every other directly).",
		Fidelity: cfg.Fidelity,
	}
	n := cfg.midN()
	f := int(0.3 * float64(n))
	protos := []sim.Protocol{gossip.PushPull{}, gossip.EARS{}}

	// Generous stall window (a clean complete-graph run is far smaller)
	// plus a hard event cutoff: blocked sends still count as events, so a
	// topology-oblivious protocol spinning against dead edges terminates
	// at the cutoff even if its live-edge trickle never quiesces.
	const stallWindow = 1 << 20
	const maxEvents = 50_000_000

	type topoCase struct {
		name   string
		topo   *sim.Topology
		degree float64
	}
	tcases := []topoCase{
		{name: "ring", topo: &sim.Topology{Kind: "ring"}, degree: 2},
		{name: "k-regular,k=4", topo: &sim.Topology{Kind: "k-regular", K: 4}, degree: 4},
		{name: "expander,k=4", topo: &sim.Topology{Kind: "expander", K: 4, Seed: 9}, degree: 4},
		{name: "complete", topo: nil, degree: float64(n - 1)},
	}

	var specs []runner.Spec
	for _, proto := range protos {
		for _, tc := range tcases {
			specs = append(specs, runner.Spec{
				Name: proto.Name() + "/" + tc.name,
				Base: sim.Config{
					N: n, F: f, Protocol: proto, Topology: tc.topo,
					MaxEvents: maxEvents, StallWindow: stallWindow,
				},
				Runs:     cfg.runs(),
				BaseSeed: cfg.seed(),
			})
		}
	}
	return specs, func(results []runner.Result) (*Report, error) {
		blockedMetric := func(outs []sim.Outcome) []float64 {
			xs := make([]float64, len(outs))
			for i := range outs {
				xs[i] = float64(outs[i].Stats.BlockedSends)
			}
			return xs
		}

		table := &plot.Table{
			Title:   fmt.Sprintf("dissemination by communication graph (N=%d, F=%d)", n, f),
			Columns: []string{"protocol", "topology", "median T", "median M", "median blocked", "gathered", "stalled", "cutoff", "failed"},
		}
		curve := map[string][]float64{}
		blocked := map[string]map[string]float64{}
		graceful := true
		idx := 0
		for _, proto := range protos {
			blocked[proto.Name()] = map[string]float64{}
			for _, tc := range tcases {
				res := results[idx]
				idx++
				mT, _, _ := medianOf(res.Outcomes, runner.Times)
				mM, _, _ := medianOf(res.Outcomes, runner.Messages)
				mB, _, _ := medianOf(res.Outcomes, blockedMetric)
				table.AddRow(proto.Name(), tc.name, mT, mM, mB,
					plot.FormatFloat(runner.GatheredRate(res.Outcomes)),
					plot.FormatFloat(runner.StalledRate(res.Outcomes)),
					plot.FormatFloat(runner.CutoffRate(res.Outcomes)),
					res.Failed())
				curve[proto.Name()] = append(curve[proto.Name()], mT)
				blocked[proto.Name()][tc.name] = mB
				if res.Failed() > 0 {
					graceful = false
				}
			}
		}
		rep.Tables = append(rep.Tables, table)

		chart := plot.Chart{
			Title:  "median T vs graph degree",
			XLabel: "edges per process",
			YLabel: "time T(O)",
		}
		for _, tc := range tcases {
			chart.Xs = append(chart.Xs, tc.degree)
		}
		for _, proto := range protos {
			chart.Series = append(chart.Series, plot.Series{Name: proto.Name(), Ys: curve[proto.Name()]})
		}
		rep.Charts = append(rep.Charts, chart)

		annotateTopology(rep, protos, tcases[0].name, curve, blocked, graceful)
		return rep, nil
	}
}

// annotateTopology records the shape findings: sparser graphs slow
// dissemination (the complete graph is the fastest row for every
// protocol), dead-edge draws surface as blocked sends only on sparse
// graphs, and the sweep degrades gracefully — starvation classifies,
// it never errors.
func annotateTopology(rep *Report, protos []sim.Protocol, sparsest string,
	curve map[string][]float64, blocked map[string]map[string]float64, graceful bool) {
	for _, proto := range protos {
		ys := curve[proto.Name()]
		if len(ys) < 2 {
			continue
		}
		complete := ys[len(ys)-1] // tcases order: sparsest first, complete last
		worst := ys[0]
		rep.Notef("%s: median T %.1f on the complete graph → %.1f on the %s — sparse graphs cost time, never correctness %s",
			proto.Name(), complete, worst, sparsest, verdict(worst >= complete))
		rep.Notef("%s: blocked sends %.0f on the complete graph, %.0f on the %s — the send gate only ever fires off-graph %s",
			proto.Name(), blocked[proto.Name()]["complete"], blocked[proto.Name()][sparsest], sparsest,
			verdict(blocked[proto.Name()]["complete"] == 0 && blocked[proto.Name()][sparsest] > 0))
	}
	rep.Notef("graceful degradation — every sparse-graph run completes with a classified outcome (no engine errors): %s",
		verdict(graceful))
}
