package service

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/ugf-sim/ugf/internal/runner"
	"github.com/ugf-sim/ugf/internal/spec"
	"github.com/ugf-sim/ugf/internal/xrand"
)

// Options parameterizes a Coordinator.
type Options struct {
	// Cache is the result store; nil opens a fresh in-memory cache.
	Cache *Cache
	// LeaseTTL is how long a worker holds a leased run before the
	// coordinator reaps and requeues it (default 2 minutes). Deterministic
	// failures reported inside the TTL are final; only vanished workers
	// trigger the requeue path.
	LeaseTTL time.Duration
	// MaxAttempts bounds how many leases one run may consume before the
	// coordinator fails it with an environmental RunError (default 3).
	MaxAttempts int
}

// Coordinator owns the sweep service's state: the task queue partitioning
// submitted (spec, seed) grids across workers, the lease table, the
// per-sweep result feeds, and the content-addressed cache. All its
// methods are safe for concurrent use; Server exposes them over HTTP, and
// in-process workers call them directly — the two deployments share every
// line of dispatch logic.
//
// Deduplication happens at two levels. A submitted run whose fingerprint
// is already cached is answered immediately without queueing; one whose
// fingerprint is already queued or leased (for any sweep) joins that
// in-flight task, so concurrent sweeps over overlapping grids compute
// each distinct run exactly once.
type Coordinator struct {
	cache       *Cache
	leaseTTL    time.Duration
	maxAttempts int

	mu     sync.Mutex
	wake   *sync.Cond // broadcast on every event append / sweep completion
	notify chan struct{}
	sweeps map[string]*sweepState
	tasks  map[string]*task // queued or leased, by fingerprint
	queue  []*task          // FIFO of queued tasks
	leases map[string]*task // by lease ID
	nextID int64

	computed, cacheHits, dedupHits, requeued int

	now func() time.Time // test hook
}

// sub points one task at one slot of one sweep; a task completing fills
// every slot subscribed to it.
type sub struct {
	sw    *sweepState
	index int
}

type task struct {
	fp       string
	sp       spec.Spec
	attempts int    // leases consumed so far
	leaseID  string // "" while queued
	expiry   time.Time
	subs     []sub
}

type sweepState struct {
	id, name             string
	specs                []spec.Spec // canonical, one per run, in sweep order
	fps                  []string
	events               []ResultEvent // completion order; retained for streaming
	done, failed         int
	cacheHits, dedupHits int
	prog                 *runner.Progress
}

// NewCoordinator builds a coordinator with the given options.
func NewCoordinator(opts Options) *Coordinator {
	cache := opts.Cache
	if cache == nil {
		cache, _ = NewCache("")
	}
	ttl := opts.LeaseTTL
	if ttl <= 0 {
		ttl = 2 * time.Minute
	}
	attempts := opts.MaxAttempts
	if attempts <= 0 {
		attempts = 3
	}
	c := &Coordinator{
		cache:       cache,
		leaseTTL:    ttl,
		maxAttempts: attempts,
		notify:      make(chan struct{}, 1),
		sweeps:      map[string]*sweepState{},
		tasks:       map[string]*task{},
		leases:      map[string]*task{},
		now:         time.Now,
	}
	c.wake = sync.NewCond(&c.mu)
	return c
}

// Cache returns the coordinator's result cache.
func (c *Coordinator) Cache() *Cache { return c.cache }

// Submit validates and enqueues a sweep: every spec canonicalized and
// fingerprinted, cached results answered immediately, the rest deduped
// against in-flight tasks or queued for workers. The first invalid spec
// rejects the whole request with a *spec.Error — a sweep is all-or-
// nothing, so a half-submitted grid never leaves orphan tasks behind.
func (c *Coordinator) Submit(req SweepRequest) (SubmitResponse, error) {
	if len(req.Specs) == 0 {
		return SubmitResponse{}, &spec.Error{Field: "specs", Msg: "empty sweep: need at least one spec"}
	}
	runs := req.Runs
	if runs <= 0 {
		runs = 1
	}
	// Validate and canonicalize everything before touching shared state.
	grid := make([]spec.Spec, 0, len(req.Specs)*runs)
	for i, sp := range req.Specs {
		for r := 0; r < runs; r++ {
			one := sp
			if runs > 1 {
				// The same derivation the local runner uses, so distributed
				// and local sweeps compute the identical seed set.
				one.Seed = xrand.Derive(sp.Seed, uint64(r))
			}
			canon, err := one.Canonicalize()
			if err != nil {
				if se, ok := err.(*spec.Error); ok {
					return SubmitResponse{}, &spec.Error{Field: se.Field, Param: se.Param,
						Msg: fmt.Sprintf("specs[%d]: %s", i, se.Msg)}
				}
				return SubmitResponse{}, err
			}
			grid = append(grid, canon)
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	sw := &sweepState{
		id:    fmt.Sprintf("s%d", c.nextID),
		name:  req.Name,
		specs: grid,
		fps:   make([]string, len(grid)),
		prog:  &runner.Progress{Label: req.Name},
	}
	c.sweeps[sw.id] = sw
	resp := SubmitResponse{ID: sw.id, Total: len(grid)}
	for i, canon := range grid {
		fp := canon.Fingerprint()
		sw.fps[i] = fp
		if rec, ok := c.cache.Get(fp); ok {
			sw.cacheHits++
			c.cacheHits++
			c.emitLocked(sw, i, rec, true)
			continue
		}
		if t, ok := c.tasks[fp]; ok {
			sw.dedupHits++
			c.dedupHits++
			t.subs = append(t.subs, sub{sw, i})
			continue
		}
		t := &task{fp: fp, sp: canon, subs: []sub{{sw, i}}}
		c.tasks[fp] = t
		c.queue = append(c.queue, t)
	}
	resp.CacheHits = sw.cacheHits
	resp.DedupHits = sw.dedupHits
	c.kick()
	c.wake.Broadcast()
	return resp, nil
}

// emitLocked appends a result event for slot index of sw and updates the
// sweep's counters and progress feed.
func (c *Coordinator) emitLocked(sw *sweepState, index int, rec Record, cached bool) {
	ev := ResultEvent{
		Index:       index,
		Fingerprint: rec.Fingerprint,
		Spec:        rec.Spec,
		Outcome:     rec.Outcome,
		Err:         rec.Err,
		Cached:      cached,
	}
	sw.events = append(sw.events, ev)
	sw.done++
	if ev.Failed() {
		sw.failed++
	}
	u := runner.RunUpdate{
		Spec: sw.name, Done: sw.done, Total: len(sw.fps), Failed: sw.failed,
		// Cache-served runs play the journal-served role in the snapshot:
		// discounted from the rate, so the ETA reflects actual compute.
		FromJournal: cached, Journaled: sw.cacheHits,
	}
	if ev.Outcome != nil {
		u.Seed = ev.Outcome.Seed
	}
	sw.prog.OnRun(u)
	c.wake.Broadcast()
}

// Status reports a sweep's progress; ok is false for unknown IDs.
func (c *Coordinator) Status(id string) (SweepStatus, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sw, ok := c.sweeps[id]
	if !ok {
		return SweepStatus{}, false
	}
	return SweepStatus{
		ID: sw.id, Name: sw.name,
		Done: sw.done, Total: len(sw.fps), Failed: sw.failed,
		CacheHits: sw.cacheHits, DedupHits: sw.dedupHits,
		Finished: sw.done == len(sw.fps),
		Progress: sw.prog.Snapshot(),
	}, true
}

// Stream delivers a sweep's result events to fn in completion order,
// starting at event index from (not run index: events are retained, so
// reconnecting clients pass the count they already have). It blocks until
// the sweep finishes, ctx is cancelled, or fn returns an error.
func (c *Coordinator) Stream(ctx context.Context, id string, from int, fn func(ResultEvent) error) error {
	stop := context.AfterFunc(ctx, func() {
		c.mu.Lock()
		c.wake.Broadcast()
		c.mu.Unlock()
	})
	defer stop()
	c.mu.Lock()
	sw, ok := c.sweeps[id]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("service: unknown sweep %q", id)
	}
	if from < 0 {
		from = 0
	}
	i := from
	for {
		for i < len(sw.events) {
			ev := sw.events[i]
			i++
			c.mu.Unlock()
			if err := fn(ev); err != nil {
				return err
			}
			c.mu.Lock()
		}
		if sw.done == len(sw.fps) {
			c.mu.Unlock()
			return nil
		}
		if err := ctx.Err(); err != nil {
			c.mu.Unlock()
			return err
		}
		c.wake.Wait()
	}
}

// Run returns the cached record of one fingerprint.
func (c *Coordinator) Run(fp string) (Record, bool) {
	return c.cache.Get(fp)
}

// Acquire leases the next queued run to a worker, blocking until one is
// available or ctx ends. A nil lease with a nil error means ctx expired
// with nothing to hand out — the long-poll idle answer, not a failure.
func (c *Coordinator) Acquire(ctx context.Context) (*Lease, error) {
	for {
		c.mu.Lock()
		c.reapLocked()
		if t := c.popLocked(); t != nil {
			c.nextID++
			t.leaseID = fmt.Sprintf("l%d", c.nextID)
			t.expiry = c.now().Add(c.leaseTTL)
			c.leases[t.leaseID] = t
			lease := &Lease{
				ID: t.leaseID, Fingerprint: t.fp, Spec: t.sp,
				Attempt: t.attempts, TTLSeconds: c.leaseTTL.Seconds(),
			}
			t.attempts++
			c.mu.Unlock()
			return lease, nil
		}
		c.mu.Unlock()
		select {
		case <-ctx.Done():
			return nil, nil
		case <-c.notify:
		case <-time.After(200 * time.Millisecond):
			// The periodic wake doubles as the lease reaper's clock: an
			// otherwise idle coordinator still requeues expired leases.
		}
	}
}

// popLocked removes and returns the first queued task, nil when the queue
// is empty.
func (c *Coordinator) popLocked() *task {
	for len(c.queue) > 0 {
		t := c.queue[0]
		c.queue = c.queue[1:]
		if t.leaseID == "" && c.tasks[t.fp] == t {
			return t
		}
	}
	return nil
}

// reapLocked requeues (or, past MaxAttempts, fails) tasks whose lease
// TTL expired — the worker died or lost its network. Reaping happens on
// every Acquire/Complete call plus the acquire loop's periodic wake, so
// no background goroutine is needed and tests control time exactly.
func (c *Coordinator) reapLocked() {
	now := c.now()
	for id, t := range c.leases {
		if now.Before(t.expiry) {
			continue
		}
		delete(c.leases, id)
		t.leaseID = ""
		c.requeued++
		if t.attempts >= c.maxAttempts {
			// Environmental exhaustion: no worker finished the run inside
			// the TTL, MaxAttempts times over. Classified non-deterministic
			// and NOT cached — a later submission retries fresh.
			re := &runner.RunError{
				Spec: t.fp, Seed: t.sp.Seed, Deterministic: false,
				Panic: fmt.Sprintf("lease expired %d times (TTL %s); worker lost or run exceeds TTL", t.attempts, c.leaseTTL),
			}
			c.finishLocked(t, Record{Fingerprint: t.fp, Spec: t.sp, Err: re}, false)
			continue
		}
		c.queue = append(c.queue, t)
	}
	if len(c.queue) > 0 {
		c.kick()
	}
}

// Complete reports a leased run's result. Stale lease IDs — expired and
// requeued, or already completed by a twin — are ignored without error:
// completion is idempotent, first writer wins.
func (c *Coordinator) Complete(leaseID string, res CompleteRequest) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked()
	t, ok := c.leases[leaseID]
	if !ok {
		return nil // stale: reaped, requeued, or finished elsewhere
	}
	delete(c.leases, leaseID)
	t.leaseID = ""
	switch {
	case res.ConfigError != "":
		// The spec cannot run: deterministic by construction, every retry
		// fails identically. Cached so resubmissions answer instantly.
		re := &runner.RunError{
			Spec: t.fp, Seed: t.sp.Seed, Deterministic: true,
			Panic: "configuration error: " + res.ConfigError,
		}
		c.finishLocked(t, Record{Fingerprint: t.fp, Spec: t.sp, Err: re}, true)
	case res.Outcome != nil && res.Outcome.Cancelled:
		// The worker was shut down mid-run; the outcome's stopping point is
		// wall-clock-dependent, never cacheable. Requeue.
		c.queue = append(c.queue, t)
		c.kick()
	case res.Outcome != nil || res.Err != nil && res.Err.Deterministic:
		c.computed++
		c.finishLocked(t, Record{Fingerprint: t.fp, Spec: t.sp, Outcome: res.Outcome, Err: res.Err}, true)
	default:
		return fmt.Errorf("service: lease %s completed with neither outcome nor deterministic error", leaseID)
	}
	return nil
}

// finishLocked resolves a task: optionally caches its record, removes it
// from the in-flight table, and emits an event into every subscribed
// sweep slot. The cache keeps outcomes and deterministic failures only: an
// incident a same-seed retry recovered is news for the sweeps waiting on
// this run, not for every later submission the cache answers.
func (c *Coordinator) finishLocked(t *task, rec Record, cache bool) {
	if cache {
		stored := rec
		if stored.Err != nil && !stored.Err.Deterministic {
			stored.Err = nil
		}
		c.cache.Put(stored) // a failed write is counted: Counters.CacheWriteErrors
	}
	delete(c.tasks, t.fp)
	for _, s := range t.subs {
		c.emitLocked(s.sw, s.index, rec, false)
	}
}

// Counters returns the coordinator's lifetime counters.
func (c *Coordinator) Counters() Counters {
	c.mu.Lock()
	defer c.mu.Unlock()
	writeErrs, _ := c.cache.WriteErrors()
	return Counters{
		Computed: c.computed, CacheHits: c.cacheHits, DedupHits: c.dedupHits,
		Requeued: c.requeued, Queued: len(c.queue), Leased: len(c.leases),
		CacheWriteErrors: writeErrs,
	}
}

// kick nudges one blocked Acquire without blocking the caller.
func (c *Coordinator) kick() {
	select {
	case c.notify <- struct{}{}:
	default:
	}
}
