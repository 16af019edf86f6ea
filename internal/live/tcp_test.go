package live_test

import (
	"reflect"
	"strings"
	"testing"

	"github.com/ugf-sim/ugf/internal/live"
	"github.com/ugf-sim/ugf/internal/sim"
	"github.com/ugf-sim/ugf/internal/simtest"
)

// TestTCPTransportMatchesSim runs the live runtime over real loopback TCP
// sockets — every frame crosses the kernel's network stack — and holds
// the outcome and the per-process send counts to the same bit-exact
// oracle equality as the in-process transport. The coordinator's barrier, not the transport, is what makes
// the run deterministic; this is the test that proves it.
func TestTCPTransportMatchesSim(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback sockets in -short")
	}
	for _, name := range []string{"push-pull", "ears"} {
		for _, seed := range []uint64{1, 2} {
			var simRec, liveRec sim.Recorder
			simCfg := sim.Config{
				N: 12, Protocol: proto(t, name), Seed: seed,
				Faults: &sim.FaultPlan{Seed: 5, Drop: 0.1, Duplicate: 0.05, Corrupt: 0.05},
				Trace:  &simRec,
			}
			want, err := sim.Run(simCfg)
			if err != nil {
				t.Fatalf("%s/seed=%d: sim: %v", name, seed, err)
			}
			liveCfg, err := live.FromSimConfig(simCfg)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := live.NewTCPTransport(simCfg.N)
			if err != nil {
				t.Fatalf("%s/seed=%d: transport: %v", name, seed, err)
			}
			liveCfg.Transport = tr
			liveCfg.Trace = &liveRec
			got, err := live.Run(liveCfg)
			if err != nil {
				t.Fatalf("%s/seed=%d: live over TCP: %v", name, seed, err)
			}
			if diffs := simtest.DiffOutcomes(got, want); len(diffs) != 0 {
				t.Errorf("%s/seed=%d: TCP run diverges from sim:\n  %s",
					name, seed, strings.Join(diffs, "\n  "))
			}
			if g, w := sendsByProc(liveRec.Events, 12), sendsByProc(simRec.Events, 12); !reflect.DeepEqual(g, w) {
				t.Errorf("%s/seed=%d: per-process sends: TCP=%v sim=%v", name, seed, g, w)
			}
		}
	}
}
