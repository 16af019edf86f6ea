package service

import (
	"context"
	"fmt"

	"github.com/ugf-sim/ugf/internal/runner"
	"github.com/ugf-sim/ugf/internal/spec"
)

// SweepBackend is the executor's view of a coordinator: submit a grid,
// stream its results. Coordinator implements it in-process; Client
// implements it over HTTP.
type SweepBackend interface {
	Submit(req SweepRequest) (SubmitResponse, error)
	Stream(ctx context.Context, id string, from int, fn func(ResultEvent) error) error
}

// ExecuteSpecs runs a batch of runner specs through a sweep backend
// instead of the local worker pool: it is runner.Fold over a dispatcher
// that turns the pending runs into canonical specs, submits them as one
// sweep and reports the streamed events. The result contract — Outcomes
// order, Errors/Flaky classification, journal and OnRun integration — is
// therefore the runner's own, and everything downstream (stats, tables,
// CSV writers) produces byte-identical artifacts whether the runs were
// computed locally, by remote workers, or served from the result cache.
// A cache-served run plays the journal-served role in the OnRun feed (no
// local compute, discounted from the ETA) and is journaled like a computed
// one, so an interrupted -coord sweep resumes locally or remotely alike.
//
// Requirements beyond runner.ExecuteContext: every spec's protocol and
// adversary must be registry types (custom implementations have no spec
// encoding to ship over the wire), and opts.Trace must be nil (traces
// are local-only). opts.Workers and opts.MaxWall configure the local pool
// and are ignored.
func ExecuteSpecs(ctx context.Context, be SweepBackend, specs []runner.Spec, opts runner.Options) ([]runner.Result, error) {
	if opts.Trace != nil {
		return nil, fmt.Errorf("service: per-run tracing is local-only; run without -coord to trace")
	}
	return runner.Fold(ctx, specs, opts, func(ctx context.Context, jobs []runner.Job, done runner.Done) error {
		grid := make([]spec.Spec, len(jobs))
		for i, j := range jobs {
			sp, err := spec.FromConfig(specs[j.Series].Config(j.Run))
			if err != nil {
				return fmt.Errorf("service: spec %q is not service-executable: %w", specs[j.Series].Name, err)
			}
			grid[i] = sp
		}
		resp, err := be.Submit(SweepRequest{Name: "exec", Specs: grid})
		if err != nil {
			return fmt.Errorf("service: submit: %w", err)
		}
		return be.Stream(ctx, resp.ID, 0, func(ev ResultEvent) error {
			if ev.Index < 0 || ev.Index >= len(jobs) {
				return fmt.Errorf("service: event index %d outside sweep of %d runs", ev.Index, len(jobs))
			}
			if ev.Outcome == nil && ev.Err == nil {
				return fmt.Errorf("service: event %d carries neither outcome nor error", ev.Index)
			}
			done(ev.Index, ev.Outcome, ev.Err, ev.Cached)
			return nil
		})
	})
}
