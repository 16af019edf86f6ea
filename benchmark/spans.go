package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The layers of the repo, by package. Every span names one; "benchmark" is
// the harness's own time (building inputs, checking outputs).
const (
	layerBench   = "benchmark"
	layerXrand   = "xrand"
	layerSim     = "sim"
	layerGossip  = "gossip"
	layerCore    = "core"
	layerTrace   = "sim/trace"
	layerRunner  = "runner"
	layerSpec    = "spec"
	layerService = "service"
	layerWire    = "live/wire"
	layerLive    = "live"
	layerSimtest = "simtest"
)

// span is one call into a layer, recorded by the benchmark around the call.
// Calls too frequent to record one by one (protocol steps, adversary
// observes, trace events, transport sends) are folded into one aggregate
// span per parent: Calls of them took Busy nanoseconds in total, spread
// over Lanes goroutines that could run at once.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Run    string `json:"run,omitempty"` // shared by the spans of one run
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int64  `json:"calls,omitempty"`
	Busy   int64  `json:"busy_ns,omitempty"`
	Lanes  int    `json:"lanes,omitempty"`
}

// covered is the part of the parent's interval an aggregate span stands for.
func (s span) covered() int64 { return s.Busy / int64(s.Lanes) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced code paths pass nil and pay nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(parent int, layer, name, run string) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Layer: layer, Name: name, Run: run, Start: now})
	return len(t.spans) - 1
}

// end closes a span and returns its duration in nanoseconds.
func (t *tracer) end(id int) int64 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return now - t.spans[id].Start
}

// aggregate records calls that took busy nanoseconds in total, on lanes
// goroutines at once, as one span under parent.
func (t *tracer) aggregate(parent int, layer, name, run string, busy, calls int64, lanes int) {
	if t == nil || calls == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent]
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Layer: layer, Name: name, Run: run,
		Start: p.Start, End: int64(time.Since(t.t0)), Calls: calls, Busy: busy, Lanes: lanes})
}

// selfByLayer sums, per layer, each span's duration minus the part of it
// its children cover. Children on other goroutines may overlap, so plain
// children are merged as intervals. An aggregate child covers Busy/Lanes;
// when concurrent calls spent their time blocked on each other that
// estimate can exceed what is left of the parent, and the aggregates are
// scaled down to fit, so that self times always sum to the root spans.
func (t *tracer) selfByLayer() map[string]int64 {
	children := make(map[int][]span)
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[string]int64)
	for _, s := range t.spans {
		if s.Lanes > 0 {
			continue // counted under its parent
		}
		left := s.End - s.Start
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		edge := s.Start
		var folded int64
		for _, k := range kids {
			if k.Lanes > 0 {
				folded += k.covered()
				continue
			}
			from, to := max(k.Start, edge), min(k.End, s.End)
			if to > from {
				left -= to - from
				edge = to
			}
		}
		scale := 1.0
		if folded > left {
			scale = float64(left) / float64(folded)
		}
		for _, k := range kids {
			if k.Lanes > 0 {
				part := int64(float64(k.covered()) * scale)
				self[k.Layer] += part
				left -= part
			}
		}
		self[s.Layer] += left
	}
	return self
}

// rootWall is the summed duration of the root spans.
func (t *tracer) rootWall() int64 {
	var w int64
	for _, s := range t.spans {
		if s.Parent < 0 {
			w += s.End - s.Start
		}
	}
	return w
}

func (t *tracer) write(path string, meta any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Meta  any    `json:"meta"`
		Spans []span `json:"spans"`
	}{meta, t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// meter accumulates the time and count of calls too frequent for spans.
type meter struct{ ns, n atomic.Int64 }

func (m *meter) add(t0 time.Time) {
	m.ns.Add(int64(time.Since(t0)))
	m.n.Add(1)
}

func (m *meter) take() (ns, n int64) { return m.ns.Swap(0), m.n.Swap(0) }
