package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"github.com/ugf-sim/ugf/internal/runner"
	"github.com/ugf-sim/ugf/internal/service"
	"github.com/ugf-sim/ugf/internal/sim"
	"github.com/ugf-sim/ugf/internal/sim/trace"
	"github.com/ugf-sim/ugf/internal/simtest/check"
	"github.com/ugf-sim/ugf/internal/spec"
	"github.com/ugf-sim/ugf/internal/xrand"
)

const (
	setupReps = 3
	// A workload's own leg gets focusShare percent of the measuring time,
	// each other leg sideShare; within the live leg TCP gets tcpShare.
	focusShare = 40
	sideShare  = 20
	tcpShare   = 75
	// Round numbers of warm-ups, out of the way of measured rounds' seeds.
	warmRound = 1 << 20
)

// setUp is everything between process start and the first measured round:
// one warm-up round of every leg at the sizes
// it is about to be measured at — inputs generated, journal and cache
// directories created, a coordinator, its listener and a worker started,
// TCP listeners opened, heaps and pools grown.
func (b *bench) setUp(rep int) {
	r := warmRound + rep
	b.sweepRound(r, b.sizesFor(legSweep).warm(), false)
	b.enginePass(r, b.sizesFor(legEngine).warm(), false, nil)
	b.coordRound(r, b.sizesFor(legCoord).warm(), false)
	live := b.sizesFor(legLive).warm()
	b.livePass(r, live, false, false, nil)
	if b.tcp {
		b.livePass(r, live, true, false, nil)
	}
}

// runMeasured is the untraced run: set-up several times over, then each
// leg in turn for its share of the budget, then the cross-leg checks. Every
// end-to-end number comes from here.
func (b *bench) runMeasured(budget time.Duration) {
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		b.setUp(rep)
		b.record("setup_s", time.Since(t0).Seconds())
	}
	atLeast := 3
	if b.smoke {
		atLeast = 2
	}
	share := func(leg uint64) time.Duration {
		if leg == b.w.focus {
			return budget * focusShare / 100
		}
		return budget * sideShare / 100
	}
	rounds(share(legSweep), atLeast, func(r int) { b.sweepRound(r, b.sizesFor(legSweep), true) })
	rounds(share(legEngine), atLeast, func(r int) { b.enginePass(r, b.sizesFor(legEngine), true, nil) })
	rounds(share(legCoord), atLeast, func(r int) { b.coordRound(r, b.sizesFor(legCoord), true) })
	live := b.sizesFor(legLive)
	rounds(share(legLive)*(100-tcpShare)/100, atLeast, func(r int) { b.livePass(r, live, false, true, nil) })
	if b.tcp {
		rounds(share(legLive)*tcpShare/100, atLeast, func(r int) { b.livePass(r, live, true, true, nil) })
	}
	b.checks()
}

// checks holds the legs to each other: one grid computed by the local
// runner and by a coordinator must agree run for run, and one traced run
// written to a file must read back and replay through the trace auditor.
func (b *bench) checks() {
	seed := xrand.Derive(b.seed, legChecks)
	b.ops(2)
	if hashes, err := b.localVersusCoordinator(seed); err != nil {
		b.failf("check local ≡ coordinator: %v", err)
	} else {
		b.pin("checks", hashes, map[string]int64{"runs": int64(len(hashes))})
	}
	if _, _, err := b.traceRoundTrip(seed); err != nil {
		b.failf("check trace round trip: %v", err)
	}
}

func (b *bench) localVersusCoordinator(seed uint64) ([]string, error) {
	specs, err := grid(coordProtocols, coordAdversaries, coordNs, 2, seed)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), sweepDeadline)
	defer cancel()
	local, err := runner.ExecuteContext(ctx, specs, runner.Options{Workers: b.nproc})
	if err != nil {
		return nil, err
	}
	c, err := b.startCoordinator(filepath.Join(b.dir, "coord-check"), true)
	if err != nil {
		return nil, err
	}
	defer c.stop()
	remote, err := service.ExecuteSpecs(ctx, c.client, specs, runner.Options{})
	if err != nil {
		return nil, err
	}
	hashes := b.checkResults("check local", local)
	if !slices.Equal(hashes, b.checkResults("check coordinator", remote)) {
		return nil, fmt.Errorf("the coordinator's outcomes differ from the local runner's")
	}
	return hashes, nil
}

// traceRoundTrip writes one small traced run to a file, reads it back and
// replays it through the auditor. It returns the record count and the time
// trace.Read took, for the traced run's per-layer metrics.
func (b *bench) traceRoundTrip(seed uint64) (records int, read time.Duration, err error) {
	specs, err := grid([]string{"ears"}, []string{"ugf"}, []int{24}, 1, seed)
	if err != nil {
		return 0, 0, err
	}
	path := filepath.Join(b.dir, "check.trace.jsonl")
	defer os.Remove(path)
	sink, err := trace.Create(path)
	if err != nil {
		return 0, 0, err
	}
	cfg := specs[0].Base
	cfg.Seed, cfg.Trace = seed, sink
	o, err := sim.Run(cfg)
	if cerr := sink.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, 0, err
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	t0 := time.Now()
	recs, err := trace.Read(f)
	read = time.Since(t0)
	if err != nil {
		return 0, 0, err
	}
	auditor, err := check.Replay(recs)
	if err != nil {
		return 0, 0, err
	}
	if v := auditor.Finish(o); len(v) != 0 {
		return 0, 0, fmt.Errorf("%d violations replaying %s, first: %s", len(v), spec.OutcomeHash(o), v[0])
	}
	return len(recs), read, nil
}
