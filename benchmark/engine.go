package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"github.com/ugf-sim/ugf/internal/core"
	"github.com/ugf-sim/ugf/internal/sim"
	"github.com/ugf-sim/ugf/internal/sim/trace"
	"github.com/ugf-sim/ugf/internal/simtest"
	"github.com/ugf-sim/ugf/internal/spec"
	"github.com/ugf-sim/ugf/internal/xrand"
)

// engineConfigs is one pass of the engine leg: O(1)-state protocols, so
// the time is the engine's own — request/response delivery with wake-ups,
// a dense-to-sparse curve, the sparsest possible schedule, and a
// delay-heavy calendar under Strategy 2.1.1.
func engineConfigs(div int, seed uint64) []sim.Config {
	n := func(full int) int { return max(8, full/div) }
	cfgs := []sim.Config{
		{N: n(250000), Protocol: simtest.PullServe{Pulls: 4}},
		{N: n(50000), Protocol: simtest.Stagger{Rounds: 8}},
		{N: n(100000), Protocol: simtest.Ring{Laps: 1}},
		{N: n(20000), F: n(20000) * 3 / 10, Protocol: simtest.Stagger{}, Adversary: core.Strategy2KL{K: 1, L: 1}},
	}
	for i := range cfgs {
		cfgs[i].Seed = xrand.Derive(seed, uint64(i))
	}
	return cfgs
}

// The three ways a pass is run: the same layer used differently.
var engineWays = []struct {
	metric string
	shards bool
	traced bool
}{
	{"engine_ns_per_event", false, false},
	{"engine_ns_per_event_sharded", true, false},
	{"engine_ns_per_event_traced", false, true},
}

// countingDiscard is the JSONL sink's writer: it drops the bytes and keeps
// their number.
type countingDiscard struct{ n int64 }

func (c *countingDiscard) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// engineStats is what one pass leaves for the per-layer metrics.
type engineStats struct {
	serial, sharded []sim.Outcome
	mallocs         uint64 // of the serial way
	traceBytes      int64
	traceEvents     int64
	wall            [3]time.Duration
}

// wrapEngine lets the traced run decorate a config and learn when its run
// has ended; the untraced run passes nil.
type wrapEngine func(way int, cfg sim.Config) (sim.Config, func())

// enginePass runs engineConfigs serially, sharded over nproc lanes, and
// serially with a JSONL trace sink attached, on identical configs, and
// holds the three to the same outcome hashes.
func (b *bench) enginePass(r int, sz sizes, measured bool, wrap wrapEngine) (st engineStats) {
	cfgs := engineConfigs(sz.engineDiv, xrand.Derive(b.seed, legEngine, uint64(r)))
	hashes := make([][]string, len(engineWays))
	var events, sends int64
	for w, way := range engineWays {
		var wall time.Duration
		var ms0, ms1 runtime.MemStats
		events, sends = 0, 0
		runtime.GC() // each way starts from the same heap
		runtime.ReadMemStats(&ms0)
		for i, cfg := range cfgs {
			var sink *trace.JSONL
			var out countingDiscard
			if way.shards {
				cfg.Workers = b.nproc
			}
			if way.traced {
				sink = trace.NewJSONL(&out)
				cfg.Trace = sink
			}
			done := func() {}
			if wrap != nil {
				cfg, done = wrap(w, cfg)
			}
			t0 := time.Now()
			o, err := sim.Run(cfg)
			if sink != nil && err == nil {
				err = sink.Close()
			}
			wall += time.Since(t0)
			done()
			b.ops(1)
			if err != nil {
				b.failf("engine pass %d %s config %d: %v", r, way.metric, i, err)
				continue
			}
			b.checkOutcome(fmt.Sprintf("engine pass %d %s config %d", r, way.metric, i), o)
			hashes[w] = append(hashes[w], spec.OutcomeHash(o))
			events += o.Stats.Events
			sends += o.Stats.Sends
			switch {
			case way.shards:
				st.sharded = append(st.sharded, o)
			case way.traced:
				st.traceBytes += out.n
				st.traceEvents += sink.Events()
			default:
				st.serial = append(st.serial, o)
			}
		}
		runtime.ReadMemStats(&ms1)
		st.wall[w] = wall
		if events == 0 {
			continue
		}
		if measured {
			b.record(way.metric, float64(wall.Nanoseconds())/float64(events))
		}
		if w == 0 {
			st.mallocs = ms1.Mallocs - ms0.Mallocs
			if measured {
				b.record("engine_alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6)
			}
		}
	}
	b.ops(2)
	for w := 1; w < len(engineWays); w++ {
		if !slices.Equal(hashes[0], hashes[w]) {
			b.failf("engine pass %d: %s outcomes differ from serial", r, engineWays[w].metric)
		}
	}
	if r == 0 {
		b.pin("engine", hashes[0], map[string]int64{"runs": int64(len(cfgs)), "events": events, "sends": sends})
	}
	return st
}
