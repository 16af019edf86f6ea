package runner

import (
	"context"
	"testing"

	"github.com/ugf-sim/ugf/internal/adversary"
	"github.com/ugf-sim/ugf/internal/sim"
)

// chatterProto never sleeps: each process pings its neighbour at every
// local step. Under a permanent partition it spins forever without
// progress — the workload the stall detector exists for.
type chatterProto struct{}

func (chatterProto) Name() string { return "chatter" }
func (chatterProto) New(envs []sim.Env) []sim.Process {
	procs := make([]sim.Process, len(envs))
	for i, env := range envs {
		procs[i] = &chatterProc{env: env}
	}
	return procs
}

type chatterProc struct{ env sim.Env }

type pingPayload struct{}

func (pingPayload) Kind() string { return "ping" }

func (c *chatterProc) Step(now sim.Step, delivered []sim.Message, out *sim.Outbox) {
	out.Send(sim.ProcID((int(c.env.ID)+1)%c.env.N), pingPayload{})
}
func (c *chatterProc) Asleep() bool            { return false }
func (c *chatterProc) Knows(g sim.ProcID) bool { return g == c.env.ID }

// TestStalledRunsAreNotFailures: a spec whose every run stalls (permanent
// partition, never-sleeping protocol, stall window set) must complete the
// batch with zero Errors and zero Flaky — stall detection is a classified
// outcome, not a fault — and StalledRate must see every run.
func TestStalledRunsAreNotFailures(t *testing.T) {
	specs := []Spec{{
		Name: "stall",
		Base: sim.Config{
			N: 6, Protocol: chatterProto{},
			Adversary:   adversary.Partition{Permanent: true, Classes: 6},
			StallWindow: 256,
		},
		Runs:     4,
		BaseSeed: 7,
	}}
	results, err := ExecuteContext(context.Background(), specs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	res := results[0]
	if len(res.Errors) != 0 || len(res.Flaky) != 0 {
		t.Fatalf("stalled runs recorded as faults: errors=%d flaky=%d", len(res.Errors), len(res.Flaky))
	}
	stalled := 0
	for i, o := range res.Outcomes {
		if !o.HorizonHit {
			t.Errorf("run %d: stalled outcome without HorizonHit", i)
		}
		if o.Stalled {
			stalled++
		}
	}
	if stalled == 0 {
		t.Fatal("no run stalled under a permanent partition")
	}
	if got := StalledRate(res.Kept()); got != float64(stalled)/float64(len(res.Outcomes)) {
		t.Errorf("StalledRate = %v with %d/%d stalled", got, stalled, len(res.Outcomes))
	}
	if CutoffRate(res.Kept()) < StalledRate(res.Kept()) {
		t.Error("CutoffRate must include every stalled run")
	}
}
