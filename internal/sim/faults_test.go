package sim

import (
	"reflect"
	"testing"

	"github.com/ugf-sim/ugf/internal/xrand"
)

// ---- test adversaries -----------------------------------------------------

// isolateAdv puts every process in its own partition class during Init:
// the totally severed network. Nothing can ever be delivered.
type isolateAdv struct{}

func (isolateAdv) Name() string { return "isolate" }
func (isolateAdv) New(n, f int, rng *xrand.RNG) AdversaryInstance {
	return isolateInstance{}
}

type isolateInstance struct{}

func (isolateInstance) Init(view View, ctl Control) {
	for p := 0; p < view.N(); p++ {
		ctl.SetClass(ProcID(p), p)
	}
}
func (isolateInstance) Observe(Step, []SendRecord, View, Control) {}
func (isolateInstance) Label() string                             { return "" }

// outageAdv crashes victim at crashAt and recovers it at recoverAt; it
// records the Control return values for the test to assert on.
type outageAdv struct {
	victim             ProcID
	crashAt, recoverAt Step
	amnesia            bool
	crashOK, recoverOK *bool
	budgetAfter        *int
	recrash            bool // immediately try a second crash after recovery
	recrashOK          *bool
}

func (outageAdv) Name() string { return "outage" }
func (a outageAdv) New(n, f int, rng *xrand.RNG) AdversaryInstance {
	return &outageInstance{a: a}
}

type outageInstance struct {
	a       outageAdv
	crashed bool
	done    bool
}

func (oi *outageInstance) Init(View, Control) {}
func (oi *outageInstance) Observe(now Step, _ []SendRecord, view View, ctl Control) {
	if !oi.crashed && now >= oi.a.crashAt {
		ok := ctl.Crash(oi.a.victim)
		if oi.a.crashOK != nil {
			*oi.a.crashOK = ok
		}
		oi.crashed = true
	}
	if oi.crashed && !oi.done && now >= oi.a.recoverAt {
		ok := ctl.Recover(oi.a.victim, oi.a.amnesia)
		if oi.a.recoverOK != nil {
			*oi.a.recoverOK = ok
		}
		if oi.a.recrash {
			ok := ctl.Crash(oi.a.victim)
			if oi.a.recrashOK != nil {
				*oi.a.recrashOK = ok
			}
		}
		if oi.a.budgetAfter != nil {
			*oi.a.budgetAfter = ctl.BudgetLeft()
		}
		oi.done = true
	}
}
func (oi *outageInstance) Label() string { return "" }

// linkAdv downs the directed link from → to during Init and heals it at
// healAt (0: never).
type linkAdv struct {
	from, to ProcID
	healAt   Step
}

func (linkAdv) Name() string { return "link" }
func (a linkAdv) New(n, f int, rng *xrand.RNG) AdversaryInstance {
	return &linkInstance{a: a}
}

type linkInstance struct {
	a      linkAdv
	healed bool
}

func (li *linkInstance) Init(view View, ctl Control) {
	ctl.DropLink(li.a.from, li.a.to)
}
func (li *linkInstance) Observe(now Step, _ []SendRecord, view View, ctl Control) {
	if !li.healed && li.a.healAt > 0 && now >= li.a.healAt {
		ctl.HealLink(li.a.from, li.a.to)
		li.healed = true
	}
}
func (li *linkInstance) Label() string { return "" }

// ---- fault plan -----------------------------------------------------------

func TestFaultPlanParseRoundTrip(t *testing.T) {
	fp, err := ParseFaultPlan("drop=0.1, dup=0.05 ,corrupt=0.01,seed=7")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	want := &FaultPlan{Seed: 7, Drop: 0.1, Duplicate: 0.05, Corrupt: 0.01}
	if *fp != *want {
		t.Fatalf("parsed %+v, want %+v", fp, want)
	}
	again, err := ParseFaultPlan(fp.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", fp.String(), err)
	}
	if *again != *fp {
		t.Fatalf("round trip changed the plan: %+v → %q → %+v", fp, fp.String(), again)
	}
	if p, err := ParseFaultPlan("  "); err != nil || p != nil {
		t.Fatalf("blank spec: got (%v, %v), want (nil, nil)", p, err)
	}
	for _, bad := range []string{
		"drop", "warp=0.1", "drop=x", "seed=-1", "drop=-0.1", "drop=0.6,dup=0.6",
	} {
		if _, err := ParseFaultPlan(bad); err == nil {
			t.Errorf("spec %q parsed without error", bad)
		}
	}
}

func TestFaultPlanRollIsPureAndBanded(t *testing.T) {
	fp := &FaultPlan{Seed: 42, Drop: 0.3, Duplicate: 0.2, Corrupt: 0.1}
	counts := map[LinkFault]int{}
	const trials = 20000
	for i := 0; i < trials; i++ {
		v := fp.Roll(ProcID(i%7), ProcID(i%11), Step(i), int64(i))
		if v != fp.Roll(ProcID(i%7), ProcID(i%11), Step(i), int64(i)) {
			t.Fatal("Roll is not a pure function of its arguments")
		}
		counts[v]++
	}
	frac := func(f LinkFault) float64 { return float64(counts[f]) / trials }
	for _, c := range []struct {
		fault LinkFault
		want  float64
	}{
		{FaultDrop, 0.3}, {FaultDuplicate, 0.2}, {FaultCorrupt, 0.1}, {FaultNone, 0.4},
	} {
		if got := frac(c.fault); got < c.want-0.02 || got > c.want+0.02 {
			t.Errorf("fault %d frequency %.3f, want ≈ %.2f", c.fault, got, c.want)
		}
	}
}

func TestFaultPlanValidation(t *testing.T) {
	if err := (&FaultPlan{Drop: 0.5, Duplicate: 0.5, Corrupt: 0.1}).Validate(); err == nil {
		t.Error("probabilities summing over 1 validated")
	}
	if err := (&FaultPlan{Drop: -0.1}).Validate(); err == nil {
		t.Error("negative probability validated")
	}
	cfg := Config{N: 2, Protocol: silentProto{}, Faults: &FaultPlan{Drop: 2}}
	if _, err := Run(cfg); err == nil {
		t.Error("Run accepted an invalid fault plan")
	}
	if _, err := Run(Config{N: 2, Protocol: silentProto{}, StallWindow: -1}); err == nil {
		t.Error("Run accepted a negative stall window")
	}
}

// ---- fault semantics ------------------------------------------------------

// TestDuplicateFaultDoublesDeliveries: with Duplicate = 1 every message is
// delivered twice, and the extra copies are all accounted in
// DupDeliveries.
func TestDuplicateFaultDoublesDeliveries(t *testing.T) {
	o, err := Run(Config{
		N: 6, Protocol: floodProto{}, Seed: 3,
		Faults: &FaultPlan{Duplicate: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.Stats.Sends == 0 {
		t.Fatal("flood sent nothing")
	}
	if o.Stats.Deliveries != 2*o.Stats.Sends {
		t.Errorf("Deliveries = %d, want 2×Sends = %d", o.Stats.Deliveries, 2*o.Stats.Sends)
	}
	if o.Stats.DupDeliveries != o.Stats.Sends {
		t.Errorf("DupDeliveries = %d, want Sends = %d", o.Stats.DupDeliveries, o.Stats.Sends)
	}
	if !o.Gathered {
		t.Error("duplicated flood failed to gather")
	}
}

// TestCorruptFaultDiscardsAtDelivery: with Corrupt = 1 every message
// travels the network but is discarded unread; nothing is ever delivered
// and the run still terminates.
func TestCorruptFaultDiscardsAtDelivery(t *testing.T) {
	o, err := Run(Config{
		N: 6, Protocol: floodProto{}, Seed: 3,
		Faults: &FaultPlan{Corrupt: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.Stats.Deliveries != 0 {
		t.Errorf("Deliveries = %d, want 0 under total corruption", o.Stats.Deliveries)
	}
	if o.Stats.CorruptDrops != o.Stats.Sends {
		t.Errorf("CorruptDrops = %d, want Sends = %d", o.Stats.CorruptDrops, o.Stats.Sends)
	}
	if o.Gathered {
		t.Error("gathered with every message corrupted")
	}
	if o.HorizonHit {
		t.Error("corrupted flood failed to quiesce")
	}
}

// TestDropFaultLosesAtSend: with Drop = 1 every message is counted as
// sent but never enters the calendar.
func TestDropFaultLosesAtSend(t *testing.T) {
	o, err := Run(Config{
		N: 6, Protocol: floodProto{}, Seed: 3,
		Faults: &FaultPlan{Drop: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.Stats.Deliveries != 0 || o.Stats.MaxInFlight != 0 {
		t.Errorf("Deliveries = %d MaxInFlight = %d, want 0/0 under total loss",
			o.Stats.Deliveries, o.Stats.MaxInFlight)
	}
	if o.Stats.DroppedLink != o.Stats.Sends {
		t.Errorf("DroppedLink = %d, want Sends = %d", o.Stats.DroppedLink, o.Stats.Sends)
	}
}

// TestDropLinkAndHeal: a downed directed link drops exactly the traffic
// it carries, and healing restores it.
func TestDropLinkAndHeal(t *testing.T) {
	// Never healed: 0 → 1 never arrives, so 1 never learns gossip 0.
	o, err := Run(Config{N: 3, Protocol: floodProto{}, Seed: 5, Adversary: linkAdv{from: 0, to: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if o.Stats.DroppedLink == 0 {
		t.Error("downed link dropped nothing")
	}
	if o.Gathered {
		t.Error("gathered despite a permanently downed link")
	}
	if o.Stats.LinkRewrites != 1 {
		t.Errorf("LinkRewrites = %d, want 1", o.Stats.LinkRewrites)
	}
}

// TestRecoverRetained: crash during dissemination, recover with state
// retained; the run must end with zero crashed processes and both
// lifecycle counters set. Recovered in the step it crashed in, the victim
// misses nothing: the step's sends all follow the crash, so none of them
// is pre-crash residue, and the flood still gathers.
func TestRecoverRetained(t *testing.T) {
	for _, recoverAt := range []Step{2, 1} {
		var crashOK, recoverOK bool
		o, err := Run(Config{
			N: 5, F: 1, Protocol: floodProto{ack: true}, Seed: 9,
			Adversary: outageAdv{victim: 2, crashAt: 1, recoverAt: recoverAt, crashOK: &crashOK, recoverOK: &recoverOK},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !crashOK || !recoverOK {
			t.Fatalf("recoverAt=%d: crashOK=%v recoverOK=%v, want both", recoverAt, crashOK, recoverOK)
		}
		if o.Crashed != 0 {
			t.Errorf("recoverAt=%d: Outcome.Crashed = %d, want 0 after recovery", recoverAt, o.Crashed)
		}
		if o.Stats.Crashes != 1 || o.Stats.Recoveries != 1 {
			t.Errorf("recoverAt=%d: Crashes=%d Recoveries=%d, want 1/1", recoverAt, o.Stats.Crashes, o.Stats.Recoveries)
		}
		if o.HorizonHit {
			t.Errorf("recoverAt=%d: recovery run failed to quiesce", recoverAt)
		}
		if recoverAt == 1 && (o.Stats.DroppedCrashed != 0 || !o.Gathered) {
			t.Errorf("recoverAt=1: DroppedCrashed=%d Gathered=%v, want 0/true: a send after the crash is not residue",
				o.Stats.DroppedCrashed, o.Gathered)
		}
	}
}

// TestRecoveryDoesNotRefundBudget: with F = 1, a crash–recover–crash
// sequence must refuse the second crash; CrashesEver backs the budget.
func TestRecoveryDoesNotRefundBudget(t *testing.T) {
	var recrashOK = true
	var budgetAfter = -1
	o, err := Run(Config{
		N: 4, F: 1, Protocol: floodProto{ack: true}, Seed: 11,
		Adversary: outageAdv{
			victim: 1, crashAt: 1, recoverAt: 3,
			recrash: true, recrashOK: &recrashOK, budgetAfter: &budgetAfter,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if recrashOK {
		t.Error("second crash accepted after recovery with F=1")
	}
	if budgetAfter != 0 {
		t.Errorf("BudgetLeft = %d after one crash with F=1, want 0", budgetAfter)
	}
	if o.Stats.Crashes != 1 || o.Crashed != 0 {
		t.Errorf("Crashes=%d Crashed=%d, want 1/0", o.Stats.Crashes, o.Crashed)
	}
}

// TestRecoverRefusals pins the refusal cases: out of range and not
// crashed.
func TestRecoverRefusals(t *testing.T) {
	e, err := newEngine(Config{N: 3, F: 1, Protocol: silentProto{}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.dispose()
	if e.Recover(0, false) {
		t.Error("Recover accepted a process that never crashed")
	}
	if e.Recover(-1, false) || e.Recover(3, false) {
		t.Error("Recover accepted an out-of-range process")
	}
	if !e.Crash(1) || !e.Recover(1, true) {
		t.Error("crash/recover of process 1 refused")
	}
	if e.Recover(1, true) {
		t.Error("Recover accepted an already-recovered process")
	}
}

// ---- stall detection ------------------------------------------------------

// TestStallDetectionFullPartition is the graceful-degradation regression:
// a never-sleeping protocol under a total partition makes no progress
// forever, and the stall detector must end the run as Stalled in a
// bounded number of events instead of spinning to MaxEvents — identically
// in serial and sharded execution.
func TestStallDetectionFullPartition(t *testing.T) {
	const window = 512
	cfg := Config{
		N: 8, Protocol: busyProto{}, Seed: 17,
		Adversary:   isolateAdv{},
		StallWindow: window,
	}
	o, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !o.Stalled {
		t.Fatal("fully partitioned busy run did not report Stalled")
	}
	if !o.HorizonHit {
		t.Error("Stalled outcome must imply HorizonHit")
	}
	if o.Stats.Deliveries != 0 {
		t.Errorf("Deliveries = %d across a total partition", o.Stats.Deliveries)
	}
	// The detector fires within one active step of the window elapsing:
	// well under the default MaxEvents cutoff this run would otherwise hit.
	if limit := int64(window) + 64; o.Stats.Events > limit {
		t.Errorf("stalled after %d events, want ≤ %d", o.Stats.Events, limit)
	}
	for _, workers := range []int{2, 8} {
		scfg := cfg
		scfg.Workers = workers
		so, err := Run(scfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(o.StripWall(), so.StripWall()) {
			t.Errorf("workers=%d stalled outcome differs from serial", workers)
		}
	}
}

// TestStallWindowIgnoresProgress: a run that keeps making progress under
// an active stall window must terminate by quiescence, never Stalled.
func TestStallWindowIgnoresProgress(t *testing.T) {
	o, err := Run(Config{N: 16, Protocol: floodProto{ack: true}, Seed: 23, StallWindow: 4})
	if err != nil {
		t.Fatal(err)
	}
	if o.Stalled || o.HorizonHit {
		t.Errorf("Stalled=%v HorizonHit=%v on a quiescing run with a tight window",
			o.Stalled, o.HorizonHit)
	}
	if !o.Gathered {
		t.Error("flood failed to gather")
	}
}
