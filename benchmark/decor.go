package main

import (
	"sync/atomic"
	"time"

	"github.com/ugf-sim/ugf/internal/live"
	"github.com/ugf-sim/ugf/internal/sim"
	"github.com/ugf-sim/ugf/internal/xrand"
)

// Timing decorators for the layers that are only reached from inside
// another: they wrap the public interface the caller is handed and add the
// time of every call to a meter. They are installed by the traced run only.

// timedProtocol times Protocol.New as a whole and every Process.Step.
type timedProtocol struct {
	sim.Protocol
	build, step *meter
}

func (p timedProtocol) New(envs []sim.Env) []sim.Process {
	t0 := time.Now()
	procs := p.Protocol.New(envs)
	p.build.add(t0)
	for i, inner := range procs {
		tp := timedProc{inner, p.step}
		_, commits := inner.(sim.Committer)
		_, forgets := inner.(sim.Forgetter)
		// The engine discovers the optional interfaces by type assertion,
		// so the wrapper must have exactly the ones the process has.
		switch {
		case commits && forgets:
			procs[i] = &timedProcCF{tp}
		case commits:
			procs[i] = &timedProcC{tp}
		case forgets:
			procs[i] = &timedProcF{tp}
		default:
			procs[i] = &tp
		}
	}
	return procs
}

type timedProc struct {
	sim.Process
	m *meter
}

func (p *timedProc) Step(now sim.Step, delivered []sim.Message, out *sim.Outbox) {
	t0 := time.Now()
	p.Process.Step(now, delivered, out)
	p.m.add(t0)
}

// commit is protocol time too, but not a step of its own.
func (p *timedProc) commit(now sim.Step) {
	t0 := time.Now()
	p.Process.(sim.Committer).Commit(now)
	p.m.ns.Add(int64(time.Since(t0)))
}

type (
	timedProcC  struct{ timedProc }
	timedProcF  struct{ timedProc }
	timedProcCF struct{ timedProc }
)

func (p *timedProcC) Commit(now sim.Step)  { p.commit(now) }
func (p *timedProcCF) Commit(now sim.Step) { p.commit(now) }
func (p *timedProcF) Forget()              { p.Process.(sim.Forgetter).Forget() }
func (p *timedProcCF) Forget()             { p.Process.(sim.Forgetter).Forget() }

// timedAdversary times AdversaryInstance.Init and every Observe.
type timedAdversary struct {
	sim.Adversary
	m *meter
}

func (a timedAdversary) New(n, f int, rng *xrand.RNG) sim.AdversaryInstance {
	return &timedAdvInstance{a.Adversary.New(n, f, rng), a.m}
}

type timedAdvInstance struct {
	sim.AdversaryInstance
	m *meter
}

func (a *timedAdvInstance) Init(view sim.View, ctl sim.Control) {
	t0 := time.Now()
	a.AdversaryInstance.Init(view, ctl)
	a.m.add(t0)
}

func (a *timedAdvInstance) Observe(now sim.Step, events []sim.SendRecord, view sim.View, ctl sim.Control) {
	t0 := time.Now()
	a.AdversaryInstance.Observe(now, events, view, ctl)
	a.m.add(t0)
}

// timedSink times every TraceSink.Event.
type timedSink struct {
	inner sim.TraceSink
	m     *meter
}

func (s timedSink) Event(ev sim.TraceEvent) {
	t0 := time.Now()
	s.inner.Event(ev)
	s.m.add(t0)
}

// timedTransport times every Transport.Send and counts the bytes sent and
// the directed links used (each is one lazily dialled connection on TCP).
type timedTransport struct {
	live.Transport
	n     int
	m     *meter
	bytes atomic.Int64
	used  []atomic.Bool // n×n, [from*n+to]
}

func newTimedTransport(inner live.Transport, n int, m *meter) *timedTransport {
	return &timedTransport{Transport: inner, n: n, m: m, used: make([]atomic.Bool, n*n)}
}

func (t *timedTransport) Send(from, to int, frame []byte) error {
	size := int64(len(frame)) // Send takes ownership of frame
	t0 := time.Now()
	err := t.Transport.Send(from, to, frame)
	t.m.add(t0)
	t.bytes.Add(size)
	t.used[from*t.n+to].Store(true)
	return err
}

func (t *timedTransport) links() int {
	c := 0
	for i := range t.used {
		if t.used[i].Load() {
			c++
		}
	}
	return c
}
