package sim

import (
	"reflect"
	"testing"
)

// kindTotal sums MessagesByKind.
func kindTotal(kinds []KindCount) int64 {
	var sum int64
	for _, kc := range kinds {
		sum += kc.Count
	}
	return sum
}

// TestStatsInvariants pins the cross-field consistency contract of the
// always-on block on a representative adversarial run: the counters are
// maintained at different engine layers (scheduler, delivery, commit,
// adversary control), so their accounting identities catch a missed or
// double-counted site.
func TestStatsInvariants(t *testing.T) {
	o := mustRun(t, Config{N: 30, F: 10, Protocol: chaosProto{}, Adversary: chaosAdversary{}, Seed: 11})
	s := o.Stats
	if s.Sends != o.Messages {
		t.Errorf("Stats.Sends = %d, Outcome.Messages = %d — must agree", s.Sends, o.Messages)
	}
	if int(s.Crashes) != o.Crashed {
		t.Errorf("Stats.Crashes = %d, Outcome.Crashed = %d — must agree", s.Crashes, o.Crashed)
	}
	if got := s.Deliveries + s.DroppedCrashed + s.OmittedSends; got != s.Sends {
		t.Errorf("Deliveries(%d) + DroppedCrashed(%d) + OmittedSends(%d) = %d, want Sends = %d",
			s.Deliveries, s.DroppedCrashed, s.OmittedSends, got, s.Sends)
	}
	if got := kindTotal(s.MessagesByKind); got != s.Sends {
		t.Errorf("MessagesByKind sums to %d, want Sends = %d (%v)", got, s.Sends, s.MessagesByKind)
	}
	if s.Events != s.LocalSteps+s.Sends {
		t.Errorf("Events = %d, want LocalSteps(%d) + Sends(%d)", s.Events, s.LocalSteps, s.Sends)
	}
	if s.HeapPushes < s.HeapPops || s.HeapPops == 0 {
		t.Errorf("heap pushes %d / pops %d: pops must be positive and ≤ pushes", s.HeapPushes, s.HeapPops)
	}
	if s.ActiveSteps <= 0 || s.ActiveSteps > int64(o.Quiescence)+1 {
		t.Errorf("ActiveSteps = %d, want in (0, Quiescence+1 = %d]", s.ActiveSteps, int64(o.Quiescence)+1)
	}
	if s.MaxInFlight <= 0 || s.MaxPending <= 0 {
		t.Errorf("high-water marks MaxInFlight=%d MaxPending=%d, want > 0", s.MaxInFlight, s.MaxPending)
	}
	if s.Sleeps < int64(o.N-o.Crashed) {
		t.Errorf("Sleeps = %d: every surviving process must sleep at least once (N-Crashed = %d)",
			s.Sleeps, o.N-o.Crashed)
	}
	if s.Wall.Run <= 0 {
		t.Errorf("Wall.Run = %v, want > 0", s.Wall.Run)
	}
	for i := 1; i < len(s.MessagesByKind); i++ {
		if s.MessagesByKind[i-1].Kind >= s.MessagesByKind[i].Kind {
			t.Errorf("MessagesByKind not sorted: %v", s.MessagesByKind)
		}
	}
}

// TestStatsOmissionAccounting: omitted sends must land in OmittedSends,
// not Deliveries, and still count as Sends.
func TestStatsOmissionAccounting(t *testing.T) {
	omitAll := advFunc{
		name: "omit-all",
		init: func(v View, c Control) {
			for p := ProcID(0); int(p) < v.N(); p++ {
				c.SetOmitFrom(p, true)
			}
		},
	}
	o := mustRun(t, Config{N: 6, F: 0, Protocol: floodProto{}, Adversary: omitAll, Seed: 1})
	s := o.Stats
	if s.Sends == 0 || s.OmittedSends != s.Sends || s.Deliveries != 0 {
		t.Errorf("omit-all: Sends=%d OmittedSends=%d Deliveries=%d, want all sends omitted",
			s.Sends, s.OmittedSends, s.Deliveries)
	}
	if s.OmitRewrites != 6 {
		t.Errorf("OmitRewrites = %d, want 6", s.OmitRewrites)
	}
}

// TestStatsDeterministic: the whole block except Wall is a pure function
// of (Config, Seed), bit-identical across reruns and worker counts.
func TestStatsDeterministic(t *testing.T) {
	base := Config{N: 40, F: 13, Protocol: chaosProto{}, Adversary: chaosAdversary{}, Seed: 7}
	serial := mustRun(t, base)
	for name, cfg := range map[string]Config{
		"rerun":     base,
		"workers-4": {N: 40, F: 13, Protocol: chaosProto{}, Adversary: chaosAdversary{}, Seed: 7, Workers: 4},
	} {
		got := mustRun(t, cfg)
		if !reflect.DeepEqual(serial.Stats.StripWall(), got.Stats.StripWall()) {
			t.Errorf("%s: Stats diverged:\nserial %+v\ngot    %+v", name, serial.Stats, got.Stats)
		}
	}
}

// TestShardWallOnlyWhenForked: Wall's shard fields time forked phases and
// nothing else. A run that executed every step on the inline lane — because
// Workers ≤ 1, or because no due set ever reached 2·Workers — reports none
// of them, so its Outcome encodes exactly as it did before lanes existed;
// a run that forked reports one commit wall per lane.
func TestShardWallOnlyWhenForked(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    Config
		forked bool
	}{
		{"workers=0", Config{N: 64, Protocol: pullEchoProto{pulls: 8}, Seed: 1}, false},
		{"workers=4 below threshold", Config{N: 7, Protocol: pullEchoProto{pulls: 8}, Seed: 1, Workers: 4}, false},
		{"workers=4", Config{N: 64, Protocol: pullEchoProto{pulls: 8}, Seed: 1, Workers: 4}, true},
	} {
		w := mustRun(t, tc.cfg).Stats.Wall
		if !tc.forked {
			if len(w.ShardCommit) != 0 || w.ShardMerge != 0 || w.ShardImbalance != 0 {
				t.Errorf("%s: never forked, yet ShardCommit=%v ShardMerge=%v ShardImbalance=%v",
					tc.name, w.ShardCommit, w.ShardMerge, w.ShardImbalance)
			}
			continue
		}
		if len(w.ShardCommit) != tc.cfg.Workers || w.ShardMerge <= 0 || w.ShardImbalance < 1 {
			t.Errorf("%s: forked, yet ShardCommit=%v ShardMerge=%v ShardImbalance=%v",
				tc.name, w.ShardCommit, w.ShardMerge, w.ShardImbalance)
		}
	}
}

// TestStatsSinkNeutrality: attaching a trace sink must not change the
// outcome or the run-wide counters — observation is pure.
func TestStatsSinkNeutrality(t *testing.T) {
	base := Config{N: 25, F: 8, Protocol: chaosProto{}, Adversary: chaosAdversary{}, Seed: 3}
	plain := mustRun(t, base)

	traced := base
	traced.Trace = &Recorder{}
	got := mustRun(t, traced)
	if !reflect.DeepEqual(plain.StripWall(), got.StripWall()) {
		t.Errorf("trace sink changed the outcome:\n%+v\n%+v", plain, got)
	}
}

func TestStatsMerge(t *testing.T) {
	a := Stats{
		Events: 10, Sends: 4, MaxInFlight: 7, MaxPending: 2,
		MessagesByKind: []KindCount{{"gossip", 3}, {"pull", 1}},
		Wall:           WallStats{Run: 5},
	}
	b := Stats{
		Events: 5, Sends: 2, MaxInFlight: 3, MaxPending: 9,
		MessagesByKind: []KindCount{{"ack", 1}, {"gossip", 1}},
		Wall:           WallStats{Run: 2},
	}
	a.Merge(&b)
	if a.Events != 15 || a.Sends != 6 {
		t.Errorf("counters did not add: %+v", a)
	}
	if a.MaxInFlight != 7 || a.MaxPending != 9 {
		t.Errorf("high-water marks must take the max: %+v", a)
	}
	want := []KindCount{{"ack", 1}, {"gossip", 4}, {"pull", 1}}
	if !reflect.DeepEqual(a.MessagesByKind, want) {
		t.Errorf("MessagesByKind = %v, want %v", a.MessagesByKind, want)
	}
	if a.Wall.Run != 7 {
		t.Errorf("Wall.Run = %v, want 7", a.Wall.Run)
	}
}
