package main

import (
	"context"
	"net/http/httptest"
	"os"
	"slices"
	"time"

	"github.com/ugf-sim/ugf/internal/runner"
	"github.com/ugf-sim/ugf/internal/service"
	"github.com/ugf-sim/ugf/internal/xrand"
)

// The coordinator grid: runs of about 100 microseconds each, so spec
// canonicalisation, fingerprinting, lease round trips, cache writes and
// JSON over loopback HTTP dominate the run itself.
var (
	coordProtocols   = []string{"push-pull", "ears", "round-robin"}
	coordAdversaries = []string{"none", "ugf", "strategy-2.1.0"}
	coordNs          = []int{10, 20, 30}
)

const resubmits = 3

// coordinator is a sweep service on a loopback HTTP listener: a fresh
// Coordinator over a fresh cache, reached only through a Client.
type coordinator struct {
	coord  *service.Coordinator
	client *service.Client
	stop   func()
}

// startCoordinator brings the service up; with worker set, one RunWorker
// with nproc slots serves its leases until stop. cacheDir "" keeps the
// result cache in memory, which is what the timed rounds do: on this box's
// rate-limited virtual disk the file-per-run store flips between a fast and
// a slow regime with recent disk history, and takes every number with it.
// The store on disk is checked in checks and timed in probes.
func (b *bench) startCoordinator(cacheDir string, worker bool) (*coordinator, error) {
	cache, err := service.NewCache(cacheDir)
	if err != nil {
		return nil, err
	}
	coord := service.NewCoordinator(service.Options{Cache: cache})
	srv := httptest.NewServer(service.NewServer(coord))
	client := service.NewClient(srv.URL)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if worker {
			_ = service.RunWorker(ctx, client, service.WorkerOptions{Concurrency: b.nproc, Poll: time.Second}) // returns ctx.Err() on stop
		}
	}()
	return &coordinator{coord: coord, client: client, stop: func() {
		cancel()
		<-done
		srv.Close()
		if cacheDir != "" {
			os.RemoveAll(cacheDir)
		}
	}}, nil
}

// coordStats is what one round leaves for the per-layer metrics.
type coordStats struct {
	runs     int
	counters service.Counters
}

// coordRound submits the grid to a fresh coordinator and waits for every
// result (cold: every run is leased, computed and cached), then resubmits
// the same grid to the same coordinator (every run is a cache hit).
func (b *bench) coordRound(r int, sz sizes, measured bool) (st coordStats) {
	specs, err := grid(coordProtocols, coordAdversaries, coordNs, sz.coordRuns, xrand.Derive(b.seed, legCoord, uint64(r)))
	if err != nil {
		b.failf("coord: %v", err)
		return
	}
	c, err := b.startCoordinator("", true)
	if err != nil {
		b.failf("coord round %d: %v", r, err)
		return
	}
	defer c.stop()
	ctx, cancel := context.WithTimeout(context.Background(), sweepDeadline)
	defer cancel()

	t0 := time.Now()
	res, err := service.ExecuteSpecs(ctx, c.client, specs, runner.Options{})
	wall := time.Since(t0)
	runs, events, sends := totals(res)
	b.ops(len(specs) * sz.coordRuns)
	if err != nil {
		b.failf("coord round %d: %v", r, err)
		return
	}
	cold := b.checkResults("coord", res)
	if measured {
		b.record("coord_runs_per_s", float64(runs)/wall.Seconds())
	}
	computed := c.coord.Counters().Computed

	reps := resubmits
	if !measured {
		reps = 1
	}
	for k := 0; k < reps; k++ {
		t0 := time.Now()
		res2, err := service.ExecuteSpecs(ctx, c.client, specs, runner.Options{})
		wall := time.Since(t0)
		b.ops(runs)
		if err != nil {
			b.failf("coord round %d resubmit %d: %v", r, k, err)
			continue
		}
		if !slices.Equal(cold, b.checkResults("coord resubmit", res2)) {
			b.failf("coord round %d resubmit %d: cached outcomes differ from the computed ones", r, k)
		}
		if measured {
			b.record("coord_resubmit_runs_per_s", float64(runs)/wall.Seconds())
		}
	}
	st = coordStats{runs: runs, counters: c.coord.Counters()}
	if st.counters.Computed != computed || computed != runs {
		b.failf("coord round %d: %d runs, %d computed cold, %d after the resubmits", r, runs, computed, st.counters.Computed)
	}
	if r == 0 {
		b.pin("coord", cold, map[string]int64{"runs": int64(runs), "events": events, "sends": sends})
	}
	return st
}
