package sim

import (
	"strings"
	"testing"
)

// TestViewAccessors drives a run with an adversary that asserts every
// View accessor against ground truth it establishes itself.
func TestViewAccessors(t *testing.T) {
	checked := false
	adv := advFunc{
		name: "inspector",
		init: func(v View, c Control) {
			if v.N() != 6 || v.F() != 2 {
				t.Errorf("N/F = %d/%d, want 6/2", v.N(), v.F())
			}
			if v.Now() != 0 {
				t.Errorf("Now at init = %d, want 0", v.Now())
			}
			c.SetDelta(3, 4)
			c.SetDelay(3, 9)
			c.Crash(5)
		},
		observe: func(now Step, ev []SendRecord, v View, c Control) {
			if checked {
				return
			}
			checked = true
			if v.Now() != now {
				t.Errorf("Now = %d, want %d", v.Now(), now)
			}
			if !v.Crashed(5) || v.Crashed(0) {
				t.Error("Crashed view wrong")
			}
			if v.CorrectCount() != 5 {
				t.Errorf("CorrectCount = %d, want 5", v.CorrectCount())
			}
			if v.Delta(3) != 4 || v.Delay(3) != 9 {
				t.Errorf("Delta/Delay = %d/%d, want 4/9", v.Delta(3), v.Delay(3))
			}
			if v.Delta(0) != 1 || v.Delay(0) != 1 {
				t.Error("untouched process delays changed")
			}
			if v.Asleep(0) {
				t.Error("process 0 asleep before its first step")
			}
			if v.Asleep(5) {
				t.Error("crashed process reported asleep")
			}
			if v.SentCount(0) != 0 {
				t.Errorf("SentCount before any step = %d", v.SentCount(0))
			}
		},
	}
	o := mustRun(t, Config{N: 6, F: 2, Protocol: floodProto{}, Adversary: adv, Seed: 1})
	if !checked {
		t.Fatal("observe never ran")
	}
	if o.Crashed != 1 {
		t.Errorf("Crashed = %d", o.Crashed)
	}
}

func TestViewSentCountTracksSends(t *testing.T) {
	var sawSent int64 = -1
	adv := advFunc{
		name: "counter",
		observe: func(now Step, ev []SendRecord, v View, c Control) {
			if now == 2 {
				sawSent = v.SentCount(0)
			}
		},
	}
	mustRun(t, Config{N: 4, F: 0, Protocol: floodProto{}, Adversary: adv, Seed: 1})
	// Process 0 flooded 3 messages at step 1; at step 2 the view must
	// reflect that.
	if sawSent != 3 {
		t.Errorf("SentCount at step 2 = %d, want 3", sawSent)
	}
}

func TestControlPanics(t *testing.T) {
	adv := advFunc{name: "bad", init: func(v View, c Control) {
		mustPanic(t, "SetDelta out of range", func() { c.SetDelta(99, 2) })
		mustPanic(t, "SetDelta zero", func() { c.SetDelta(0, 0) })
		mustPanic(t, "SetDelay out of range", func() { c.SetDelay(-1, 2) })
		mustPanic(t, "SetDelay zero", func() { c.SetDelay(0, 0) })
		mustPanic(t, "SetOmitFrom out of range", func() { c.SetOmitFrom(99, true) })
	}}
	mustRun(t, Config{N: 3, F: 0, Protocol: silentProto{}, Adversary: adv, Seed: 1})
}

func TestCrashOutOfRangeRefused(t *testing.T) {
	adv := advFunc{name: "wild", init: func(v View, c Control) {
		if c.Crash(-1) || c.Crash(99) {
			t.Error("out-of-range crash accepted")
		}
	}}
	o := mustRun(t, Config{N: 3, F: 2, Protocol: silentProto{}, Adversary: adv, Seed: 1})
	if o.Crashed != 0 {
		t.Errorf("Crashed = %d, want 0", o.Crashed)
	}
}

func TestFuncSink(t *testing.T) {
	var kinds []TraceKind
	sink := FuncSink(func(ev TraceEvent) { kinds = append(kinds, ev.Kind) })
	mustRun(t, Config{N: 2, F: 0, Protocol: floodProto{}, Seed: 1, Trace: sink})
	if len(kinds) == 0 {
		t.Fatal("FuncSink received nothing")
	}
	if kinds[len(kinds)-1] != TraceEnd {
		t.Errorf("last event %v, want end", kinds[len(kinds)-1])
	}
}

func TestMessageString(t *testing.T) {
	m := Message{From: 1, To: 2, SentAt: 3, DeliverAt: 4, Payload: testPayload{kind: "x"}}
	s := m.String()
	for _, want := range []string{"1->2", "x", "sent@3", "arrive@4"} {
		if !strings.Contains(s, want) {
			t.Errorf("Message.String() = %q missing %q", s, want)
		}
	}
	if noPayload := (Message{From: 1, To: 2}).String(); !strings.Contains(noPayload, "?") {
		t.Errorf("payload-less message string = %q", noPayload)
	}
}

// TestParallelPanicPropagates: a protocol panic on a forked lane surfaces
// on the run's goroutine as a LanePanic that still knows where it came
// from — the value, the process, the step, and the worker's stack, which
// names the protocol's Step rather than the engine's re-raise.
func TestParallelPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("protocol panic in parallel worker was swallowed")
		}
		lp, ok := r.(*LanePanic)
		if !ok {
			t.Fatalf("re-raised %T (%v), want *LanePanic", r, r)
		}
		if lp.Value != "boom" || lp.Proc != 17 || lp.Step != 1 {
			t.Errorf("LanePanic = {%v, proc %d, step %d}, want {boom, proc 17, step 1}", lp.Value, lp.Proc, lp.Step)
		}
		if !strings.Contains(string(lp.Stack), "panicProc).Step") {
			t.Errorf("stack does not name the protocol's Step:\n%s", lp.Stack)
		}
		if !strings.Contains(lp.Error(), "boom") {
			t.Errorf("Error() = %q, want the original value in it", lp.Error())
		}
	}()
	Run(Config{N: 32, F: 0, Protocol: panicProto{at: 17}, Seed: 1, Workers: 4})
}

// panicProto panics inside the Step of one process — used to verify that
// worker panics surface instead of deadlocking the engine.
type panicProto struct{ at ProcID }

func (panicProto) Name() string { return "panic" }
func (p panicProto) New(envs []Env) []Process {
	return BuildEach(envs, func(env Env) Process {
		return &panicProc{id: env.ID, at: p.at}
	})
}

type panicProc struct {
	id, at ProcID
}

func (p *panicProc) Step(now Step, delivered []Message, out *Outbox) {
	if p.id == p.at {
		panic("boom")
	}
}
func (p *panicProc) Asleep() bool        { return false }
func (p *panicProc) Knows(g ProcID) bool { return g == p.id }
