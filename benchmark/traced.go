package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"github.com/ugf-sim/ugf/internal/live"
	"github.com/ugf-sim/ugf/internal/runner"
	"github.com/ugf-sim/ugf/internal/service"
	"github.com/ugf-sim/ugf/internal/sim"
	"github.com/ugf-sim/ugf/internal/spec"
	"github.com/ugf-sim/ugf/internal/xrand"
)

// runTraced is the traced run: one round of every leg at the workload's
// sizes, three times over.
//
//   - As measured (pool, worker, sharded lanes), for the per-layer numbers
//     the program itself reports: Outcome.Stats, Stats.Wall, Counters.
//   - Unrolled and plain: the benchmark calls the public primitives the
//     pool and the worker are made of, one after another on one goroutine,
//     so that every call into a layer can be a span and spans nest.
//   - Unrolled and traced: the same with spans recorded and the timing
//     decorators installed. Its wall time over the plain one's is the
//     tracing overhead.
//
// No end-to-end number comes from here.
func (b *bench) runTraced(path string, env environment) {
	b.setUp(0)
	calibrateTimer()
	fmt.Printf("timer calibration: a decorated call reads %.1f ns long when it does nothing and costs its caller %.1f ns more; per-call metrics have both taken out\n", timerIn, timerOut)
	tr := newTracer()
	one := b.record
	var plain, traced time.Duration

	// Sweep leg.
	sz := b.sizesFor(legSweep)
	ss := b.sweepRound(0, sz, false)
	if ss.runs > 0 {
		lanes := float64(b.nproc)
		busy := ss.runWall.sum() / 1e3 // s
		one("runner.overhead_us_per_run", (ss.exec.Seconds()*lanes-busy)*1e6/float64(ss.runs))
		one("runner.worker_utilisation", busy/(ss.exec.Seconds()*lanes))
		one("runner.run_ms_p50", ss.runWall.percentile(50))
		one("runner.run_ms_p99", ss.runWall.percentile(99))
		one("runner.journal_bytes_per_run", float64(ss.journalBytes)/float64(ss.runs))
	}
	plain += b.sweepUnrolled(nil, sz).wall
	su := b.sweepUnrolled(tr, sz)
	traced += su.wall
	var steps int64
	for _, p := range sweepProtocols {
		m := su.step[p]
		steps += m.calls
		one("gossip.step_ns."+p, m.perCall())
	}
	one("gossip.steps", float64(steps))
	one("gossip.new_ms", su.build.perCall()/1e6)
	one("core.observe_ns", su.observe.perCall())
	one("core.observe_calls", float64(su.observe.calls))
	one("core.share", ratio(float64(su.observe.busy), float64(su.attacked)))
	one("runner.journal_record_us", su.record.mean()/1e3)
	one("runner.journal_open_ms", float64(su.open)/1e6)
	one("runner.journal_lookup_ns", su.lookup.perCall())

	// Engine leg.
	sz = b.sizesFor(legEngine)
	es := b.enginePass(0, sz, false, nil)
	plain += es.wall[0] + es.wall[2]
	var events, pushes, inFlight int64
	var init, finalize time.Duration
	for _, o := range es.serial {
		events += o.Stats.Events
		pushes += o.Stats.HeapPushes
		inFlight = max(inFlight, o.Stats.MaxInFlight)
		init += o.Stats.Wall.Init
		finalize += o.Stats.Wall.Finalize
	}
	var commit, merge time.Duration
	var imbalance sample
	for _, o := range es.sharded {
		w := o.Stats.Wall
		for _, lane := range w.ShardCommit {
			commit += lane / time.Duration(len(w.ShardCommit))
		}
		merge += w.ShardMerge
		if w.ShardImbalance > 0 {
			imbalance = append(imbalance, w.ShardImbalance)
		}
	}
	one("sim.init_ms", float64(init)/1e6)
	one("sim.finalize_ms", float64(finalize)/1e6)
	one("sim.heap_pushes_per_event", ratio(float64(pushes), float64(events)))
	one("sim.max_in_flight", float64(inFlight))
	one("sim.allocs_per_run", ratio(float64(es.mallocs), float64(len(es.serial))))
	one("sim.shard_commit_ms", float64(commit)/1e6)
	one("sim.shard_merge_ms", float64(merge)/1e6)
	one("sim.shard_imbalance", imbalance.mean())
	eu := b.engineTraced(tr, sz)
	traced += eu.wall
	one("sim.self_ns_per_event", ratio(float64(eu.self), float64(events)))
	one("trace.event_ns", eu.sink.perCall())
	one("trace.events", float64(es.traceEvents))
	one("trace.bytes_per_event", ratio(float64(es.traceBytes), float64(es.traceEvents)))

	// Coordinator leg.
	sz = b.sizesFor(legCoord)
	cs := b.coordRound(0, sz, false)
	one("service.cache_hit_ratio", ratio(float64(cs.counters.CacheHits), float64(cs.counters.CacheHits+cs.counters.Computed)))
	one("service.requeued", float64(cs.counters.Requeued))
	plain += b.coordUnrolled(nil, sz).wall
	cu := b.coordUnrolled(tr, sz)
	traced += cu.wall
	one("service.submit_ms", float64(cu.warmSubmit)/1e6)
	one("service.stream_us_per_event", ratio(float64(cu.warmStream)/1e3, float64(cu.runs)))
	one("service.acquire_us_p50", cu.acquire.percentile(50)/1e3)
	one("service.acquire_us_p99", cu.acquire.percentile(99)/1e3)
	one("service.complete_us_p50", cu.complete.percentile(50)/1e3)
	one("service.complete_us_p99", cu.complete.percentile(99)/1e3)
	one("service.worker_run_share", ratio(cu.run.sum(), float64(cu.worker)))

	// Live leg.
	sz = b.sizesFor(legLive)
	lc := b.livePass(0, sz, false, false, nil)
	plain += lc.stepWall + lc.sendWall
	one("live.step_wall_us_chan", ratio(float64(lc.stepWall)/1e3, float64(lc.steps)))
	one("live.vs_sim_ratio", ratio(float64(lc.stepWall+lc.sendWall), float64(lc.simWall)))
	lu := b.liveTraced(tr, sz, false)
	traced += lu.wall
	one("live.chan_send_ns", lu.send.perCall())
	frameBytes, frames := lu.bytes, lu.send.calls
	if b.tcp {
		lt := b.livePass(0, sz, true, false, nil)
		plain += lt.stepWall + lt.sendWall
		one("live.step_wall_us_tcp", ratio(float64(lt.stepWall)/1e3, float64(lt.steps)))
		lu = b.liveTraced(tr, sz, true)
		traced += lu.wall
		one("live.tcp_send_us", lu.send.perCall()/1e3)
		one("live.tcp_links_dialed", float64(lu.links))
		frameBytes, frames = frameBytes+lu.bytes, frames+lu.send.calls
	}
	one("wire.frame_bytes", ratio(float64(frameBytes), float64(frames)))

	b.probes(tr)
	one("trace_overhead_pct", (ratio(float64(traced), float64(plain))-1)*100)

	// Where the traced time went, layer by layer.
	self, wall := tr.selfByLayer(), tr.rootWall()
	layers := make([]string, 0, len(self))
	var sum int64
	for l, ns := range self {
		layers = append(layers, l)
		sum += ns
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	fmt.Printf("traced wall %.3f s in %d spans; self time by layer:\n", float64(wall)/1e9, len(tr.spans))
	for _, l := range layers {
		fmt.Printf("  %-12s %10.3f ms %6.1f %%\n", l, float64(self[l])/1e6, 100*ratio(float64(self[l]), float64(wall)))
	}
	share := ratio(float64(sum), float64(wall))
	fmt.Printf("  %-12s %10.3f ms %6.1f %%\n", "sum", float64(sum)/1e6, 100*share)
	b.ops(1)
	if share < 0.9 || share > 1.1 {
		b.failf("self times sum to %.1f %% of the traced wall time, want within 10 %%", 100*share)
	}
	meta := map[string]any{"workload": b.w.name, "env": env, "root_wall_ns": wall, "self_ns_by_layer": self}
	if err := tr.write(path, meta); err != nil {
		b.failf("trace file: %v", err)
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tally is a meter read out: calls took busy nanoseconds in total.
type tally struct{ busy, calls int64 }

// perCall is the mean time of a call, less what the decorator adds to it.
func (t tally) perCall() float64 {
	return max(0, ratio(float64(t.busy), float64(t.calls))-timerIn)
}

// What a timing decorator itself costs per call: timerIn of it lands inside
// the interval it times, timerOut outside, in its caller's self time.
var timerIn, timerOut float64

func calibrateTimer() {
	const calls = 2_000_000
	var m meter
	var inner sim.TraceSink = sim.FuncSink(func(ev sim.TraceEvent) { sunk += uint64(ev.Step) })
	decorated := timedSink{inner, &m}
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		inner.Event(sim.TraceEvent{})
	}
	bare := time.Since(t0)
	t0 = time.Now()
	for i := 0; i < calls; i++ {
		decorated.Event(sim.TraceEvent{})
	}
	total := time.Since(t0)
	timerIn = float64(m.ns.Load()) / calls
	timerOut = max(0, float64(total-bare)/calls-timerIn)
}

// fold moves a meter into an aggregate span under parent and adds it to t.
func (t *tally) fold(tr *tracer, parent int, layer, name, run string, m *meter, lanes int) {
	busy, calls := m.take()
	t.busy += busy
	t.calls += calls
	tr.aggregate(parent, layer, name, run, busy, calls, lanes)
}

// sweepTrace is what the unrolled sweep leaves for the per-layer metrics.
type sweepTrace struct {
	wall     time.Duration
	step     map[string]*tally // by protocol
	build    tally
	observe  tally
	attacked int64  // ns of sim.Run under an adversary
	record   sample // ns per Journal.Record
	open     time.Duration
	lookup   tally // Journal.Lookup on the resumed journal
}

// sweepUnrolled is the runner's worker loop written out: per run
// Journal.Lookup → runner.Attempt → Journal.Record against a fresh journal,
// then the journal reopened for resume and every run looked up again.
func (b *bench) sweepUnrolled(tr *tracer, sz sizes) (st sweepTrace) {
	specs, err := grid(sweepProtocols, sweepAdversaries, sz.sweepNs, sz.sweepRuns, xrand.Derive(b.seed, legSweep, 0))
	if err != nil {
		b.failf("sweep: %v", err)
		return
	}
	path := filepath.Join(b.dir, "sweep-unrolled.journal.jsonl")
	defer os.Remove(path)
	st.step = make(map[string]*tally)
	var build, observe, lookup meter
	step := make(map[string]*meter)
	for _, p := range sweepProtocols {
		step[p], st.step[p] = new(meter), new(tally)
	}

	t0 := time.Now()
	root := tr.begin(-1, layerBench, "sweep", "")
	j, err := runner.OpenJournal(path, false)
	if err != nil {
		b.failf("sweep unrolled: %v", err)
		return
	}
	for _, s := range specs {
		fp := runner.Fingerprint(s)
		proto := s.Base.Protocol.Name()
		base := s.Base
		if tr != nil {
			base.Protocol = timedProtocol{base.Protocol, &build, step[proto]}
			if base.Adversary != nil {
				base.Adversary = timedAdversary{base.Adversary, &observe}
			}
		}
		for run := 0; run < s.Runs; run++ {
			rid := fmt.Sprintf("%s#%d", fp, run)
			cfg := base
			cfg.Seed = xrand.Derive(s.BaseSeed, uint64(run))
			b.ops(1)

			id := tr.begin(root, layerRunner, "runner.journal_lookup", rid)
			_, _, hit := j.Lookup(s, run)
			tr.end(id)
			id = tr.begin(root, layerSim, "sim.Run", rid)
			o, re, err := runner.Attempt(cfg, s.Name, run, nil)
			d := tr.end(id)
			st.build.fold(tr, id, layerGossip, "gossip.new", rid, &build, 1)
			st.step[proto].fold(tr, id, layerGossip, "gossip.step."+proto, rid, step[proto], 1)
			if base.Adversary != nil {
				st.attacked += d
				st.observe.fold(tr, id, layerCore, "core.observe", rid, &observe, 1)
			}
			if hit || re != nil || err != nil {
				b.failf("sweep unrolled %s run %d: hit=%v %v %v", s.Name, run, hit, re, err)
				continue
			}
			b.checkOutcome("sweep unrolled "+s.Name, o)
			id = tr.begin(root, layerRunner, "runner.journal_record", rid)
			err = j.Record(s, run, &o, nil)
			st.record = append(st.record, float64(tr.end(id)))
			if err != nil {
				b.failf("sweep unrolled %s run %d: %v", s.Name, run, err)
			}
		}
	}
	if err := j.Close(); err != nil {
		b.failf("sweep unrolled: %v", err)
	}

	id := tr.begin(root, layerRunner, "runner.journal_open", "")
	j, err = runner.OpenJournal(path, true)
	st.open = time.Duration(tr.end(id))
	if err != nil {
		b.failf("sweep unrolled: %v", err)
		return
	}
	for _, s := range specs {
		for run := 0; run < s.Runs; run++ {
			t0 := time.Now()
			_, _, hit := j.Lookup(s, run)
			lookup.add(t0)
			if !hit {
				b.failf("sweep unrolled %s run %d: not in the resumed journal", s.Name, run)
			}
		}
	}
	st.lookup.fold(tr, root, layerRunner, "runner.journal_lookup", "", &lookup, 1)
	j.Close()
	tr.end(root)
	st.wall = time.Since(t0)
	return st
}

// engineTrace is what the traced engine pass leaves for the metrics.
type engineTrace struct {
	wall time.Duration
	self int64 // ns of the serial way's sim.Run spans outside protocol and adversary
	sink tally
}

// engineTraced is enginePass with every sim.Run a span and, on the serial
// and traced ways, protocol, adversary and sink behind timing decorators.
// The sharded way steps processes in parallel; it gets the span alone.
func (b *bench) engineTraced(tr *tracer, sz sizes) (st engineTrace) {
	var build, step, observe, sink meter
	root := tr.begin(-1, layerBench, "engine", "")
	es := b.enginePass(0, sz, false, func(way int, cfg sim.Config) (sim.Config, func()) {
		rid := fmt.Sprintf("%s/N=%d/%s", cfg.Protocol.Name(), cfg.N, engineWays[way].metric)
		if !engineWays[way].shards {
			cfg.Protocol = timedProtocol{cfg.Protocol, &build, &step}
			if cfg.Adversary != nil {
				cfg.Adversary = timedAdversary{cfg.Adversary, &observe}
			}
			if cfg.Trace != nil {
				cfg.Trace = timedSink{cfg.Trace, &sink}
			}
		}
		id := tr.begin(root, layerSim, "sim.Run", rid)
		return cfg, func() {
			d := tr.end(id)
			var in tally
			in.fold(tr, id, layerSimtest, "simtest.new", rid, &build, 1)
			in.fold(tr, id, layerSimtest, "simtest.step", rid, &step, 1)
			in.fold(tr, id, layerCore, "core.observe", rid, &observe, 1)
			st.sink.fold(tr, id, layerTrace, "trace.event", rid, &sink, 1)
			if way == 0 {
				st.self += d - in.busy - int64(float64(in.calls)*timerOut)
			}
		}
	})
	tr.end(root)
	st.wall = es.wall[0] + es.wall[2]
	return st
}

// coordTrace is what the unrolled coordinator round leaves for the metrics.
type coordTrace struct {
	wall                   time.Duration
	runs                   int
	warmSubmit, warmStream time.Duration
	acquire, complete, run sample // ns per call
	worker                 int64  // ns from the first Acquire to the last Complete
}

// coordUnrolled is ExecuteSpecs and RunWorker written out over the public
// Client: FromConfig per series → Submit → Stream, against a worker loop of
// Acquire → Spec.Config → runner.Attempt → Complete on one goroutine; then
// Submit → Stream again, all cache hits. The worker's spans hang under the
// stream that waits for them.
func (b *bench) coordUnrolled(tr *tracer, sz sizes) (st coordTrace) {
	specs, err := grid(coordProtocols, coordAdversaries, coordNs, sz.coordRuns, xrand.Derive(b.seed, legCoord, 0))
	if err != nil {
		b.failf("coord: %v", err)
		return
	}
	c, err := b.startCoordinator("", false)
	if err != nil {
		b.failf("coord unrolled: %v", err)
		return
	}
	defer c.stop()
	ctx, cancel := context.WithTimeout(context.Background(), sweepDeadline)
	defer cancel()

	t0 := time.Now()
	root := tr.begin(-1, layerBench, "coord", "")
	defer func() {
		tr.end(root)
		st.wall = time.Since(t0)
	}()
	req := service.SweepRequest{Name: "unrolled", Runs: sz.coordRuns}
	for _, s := range specs {
		id := tr.begin(root, layerSpec, "spec.from_config", s.Name)
		sp, err := spec.FromConfig(s.Base)
		tr.end(id)
		if err != nil {
			b.failf("coord unrolled %s: %v", s.Name, err)
			return
		}
		sp.Seed = s.BaseSeed
		req.Specs = append(req.Specs, sp)
	}
	st.runs = len(specs) * sz.coordRuns

	var streamSpan atomic.Int64
	sweep := func(phase string) (hashes []string, submit, stream time.Duration, err error) {
		id := tr.begin(root, layerService, "service.submit."+phase, "")
		resp, err := c.client.Submit(req)
		submit = time.Duration(tr.end(id))
		if err != nil {
			return nil, 0, 0, err
		}
		hashes = make([]string, resp.Total)
		id = tr.begin(root, layerService, "service.stream."+phase, resp.ID)
		streamSpan.Store(int64(id))
		err = c.client.Stream(ctx, resp.ID, 0, func(ev service.ResultEvent) error {
			if ev.Failed() || ev.Index >= len(hashes) {
				return fmt.Errorf("run %d (%s) failed: %v", ev.Index, ev.Fingerprint, ev.Err)
			}
			hashes[ev.Index] = spec.OutcomeHash(*ev.Outcome)
			return nil
		})
		return hashes, submit, time.Duration(tr.end(id)), err
	}

	// The worker: st.runs leases, then it is done.
	workerErr := make(chan error, 1)
	streamSpan.Store(int64(root))
	go func() {
		first := time.Now()
		for done := 0; done < st.runs; done++ {
			parent := int(streamSpan.Load())
			actx, acancel := context.WithTimeout(ctx, leaseDeadline)
			id := tr.begin(parent, layerService, "service.acquire", "")
			lease, err := c.client.Acquire(actx)
			st.acquire = append(st.acquire, float64(tr.end(id)))
			acancel()
			if err != nil || lease == nil {
				workerErr <- fmt.Errorf("acquire %d of %d: lease=%v err=%v", done, st.runs, lease != nil, err)
				return
			}
			rid := lease.Fingerprint
			id = tr.begin(parent, layerSpec, "spec.config", rid)
			cfg, err := lease.Spec.Config()
			tr.end(id)
			if err != nil {
				workerErr <- err
				return
			}
			id = tr.begin(parent, layerSim, "sim.Run", rid)
			o, re, err := runner.Attempt(cfg, rid, 0, nil)
			st.run = append(st.run, float64(tr.end(id)))
			if re != nil || err != nil {
				workerErr <- fmt.Errorf("run %s: %v %v", rid, re, err)
				return
			}
			id = tr.begin(parent, layerService, "service.complete", rid)
			err = withDeadline(leaseDeadline, "Complete", func() error {
				return c.client.Complete(lease.ID, service.CompleteRequest{Outcome: &o})
			})
			st.complete = append(st.complete, float64(tr.end(id)))
			if err != nil {
				workerErr <- err
				return
			}
		}
		st.worker = int64(time.Since(first))
		workerErr <- nil
	}()

	b.ops(2 * st.runs)
	cold, _, _, err := sweep("cold")
	if werr := <-workerErr; werr != nil || err != nil {
		b.failf("coord unrolled: cold: %v; worker: %v", err, werr)
		return
	}
	warm, submit, stream, err := sweep("warm")
	if err != nil {
		b.failf("coord unrolled: warm: %v", err)
		return
	}
	st.warmSubmit, st.warmStream = submit, stream
	if !slices.Equal(cold, warm) {
		b.failf("coord unrolled: cached outcomes differ from the computed ones")
	}
	return st
}

// liveTrace is what a traced live pass leaves for the metrics.
type liveTrace struct {
	wall  time.Duration
	send  tally
	bytes int64
	links int
}

// liveTraced is livePass with every live.Run a span, and the transport and
// the protocol behind timing decorators. Nodes are goroutines, so the
// decorated calls of one run overlap: their aggregate spans say over how
// many lanes.
func (b *bench) liveTraced(tr *tracer, sz sizes, tcp bool) (st liveTrace) {
	kind := "chan"
	if tcp {
		kind = "tcp"
	}
	lanes := min(b.nproc, sz.liveN)
	var build, step, send meter
	var gossipTime tally
	root := tr.begin(-1, layerBench, "live."+kind, "")
	ls := b.livePass(0, sz, tcp, false, func(cfg live.Config, tcp bool) (live.Config, func()) {
		rid := fmt.Sprintf("%s/N=%d/seed=%d/%s", cfg.Protocol.Name(), cfg.N, cfg.Seed, kind)
		if cfg.Transport == nil {
			cfg.Transport = live.NewChanTransport(cfg.N)
		}
		tt := newTimedTransport(cfg.Transport, cfg.N, &send)
		cfg.Transport = tt
		cfg.Protocol = timedProtocol{cfg.Protocol, &build, &step}
		id := tr.begin(root, layerLive, "live.Run."+kind, rid)
		return cfg, func() {
			tr.end(id)
			gossipTime.fold(tr, id, layerGossip, "gossip.new", rid, &build, 1)
			gossipTime.fold(tr, id, layerGossip, "gossip.step", rid, &step, lanes)
			st.send.fold(tr, id, layerLive, "live.send."+kind, rid, &send, lanes)
			st.bytes += tt.bytes.Load()
			st.links += tt.links()
		}
	})
	tr.end(root)
	st.wall = ls.stepWall + ls.sendWall
	return st
}
