package sim

import "testing"

// Regression tests for the fan-out payload dedup. Before the intern table,
// Outbox.Drain and the engine's commit path re-wrapped the shared payload
// value into every per-destination Message, so a broadcast of one payload
// to N−1 recipients carried N−1 separate interface copies through the
// calendar. Now the Outbox stages the value once and the engine interns it
// into a single run-table slot, however many drafts reference it.

// countingPayload counts Kind resolutions: one per intern-memo *miss*, not
// one per send or even per sender, is the contract.
type countingPayload struct {
	kindCalls *int
}

func (c countingPayload) Kind() string {
	*c.kindCalls++
	return "counted"
}

func TestOutboxFanoutStagesOnce(t *testing.T) {
	ob := NewOutbox(3, 64)
	shared := benchPayload
	for to := 0; to < 32; to++ {
		if to != 3 {
			ob.Send(ProcID(to), shared)
		}
	}
	if got := ob.distinct(); got != 1 {
		t.Fatalf("fan-out of one payload staged %d entries, want 1", got)
	}
	if got := ob.Len(); got != 31 {
		t.Fatalf("Len = %d, want 31", got)
	}
	msgs := ob.Drain()
	for i, m := range msgs {
		if !samePayload(m.Payload, shared) {
			t.Fatalf("message %d carries a re-wrapped payload", i)
		}
	}
	// Alternating payloads still dedup per run of the memo.
	ob.reset(3, 64)
	a, b := Payload(testPayload{kind: "a"}), Payload(testPayload{kind: "b"})
	for to := 0; to < 8; to++ {
		ob.Send(ProcID(16+to), a)
	}
	for to := 0; to < 8; to++ {
		ob.Send(ProcID(32+to), b)
	}
	if got := ob.distinct(); got != 2 {
		t.Fatalf("two fan-out runs staged %d entries, want 2", got)
	}
}

// fanoutProto broadcasts one pre-boxed payload from every process to all
// others in its first local step, then sleeps — the maximal shared-payload
// fan-out.
type fanoutProto struct {
	pl Payload
}

func (fanoutProto) Name() string { return "fanout" }

func (fp fanoutProto) New(envs []Env) []Process {
	return BuildEach(envs, func(env Env) Process {
		return &fanoutProc{env: env, pl: fp.pl}
	})
}

type fanoutProc struct {
	env  Env
	pl   Payload
	done bool
}

func (p *fanoutProc) Step(now Step, delivered []Message, out *Outbox) {
	if !p.done {
		p.done = true
		for q := 0; q < p.env.N; q++ {
			if q != int(p.env.ID) {
				out.Send(ProcID(q), p.pl)
			}
		}
	}
}

func (p *fanoutProc) Asleep() bool        { return p.done }
func (p *fanoutProc) Knows(g ProcID) bool { return g == p.env.ID }

func TestEngineInternsFanoutOnce(t *testing.T) {
	const n = 48
	kindCalls := 0
	e, err := newEngine(Config{N: n, Protocol: fanoutProto{pl: countingPayload{kindCalls: &kindCalls}}})
	if err != nil {
		t.Fatal(err)
	}
	// Step 1: every process broadcasts the same pre-boxed value. n·(n−1)
	// messages enter the calendar, but the intern memo collapses every
	// sender's staged payload onto one slot of the inline lane's table.
	if !e.stepOnce() {
		t.Fatal("fan-out step did not run")
	}
	if len(e.lanes) != 1 {
		t.Fatalf("a Workers = 0 run grew %d lanes, want the one inline lane", len(e.lanes))
	}
	ptab := &e.lanes[0].ptab
	if got := ptab.live(); got != 1 {
		t.Errorf("after fan-out commit: %d live payload slots, want 1 (identical payload, one slot for all senders)", got)
	}
	if kindCalls != 1 {
		t.Errorf("Kind resolved %d times, want 1 (once per intern-memo miss, not per sender)", kindCalls)
	}
	// Drain the run; every slot must be recycled once its copies land.
	for !e.quiescent() {
		if !e.stepOnce() {
			break
		}
	}
	if got := ptab.live(); got != 0 {
		t.Errorf("after quiescence: %d live payload slots, want 0", got)
	}
	o := e.outcome()
	if want := int64(n * (n - 1)); o.Messages != want {
		t.Errorf("Messages = %d, want %d", o.Messages, want)
	}
	if kindCalls != 1 {
		t.Errorf("Kind resolved %d times by run end, want 1", kindCalls)
	}
}
