package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/ugf-sim/ugf/internal/sim"
	"github.com/ugf-sim/ugf/internal/simtest"
	"github.com/ugf-sim/ugf/internal/spec"
)

// TestAPISurface drives every endpoint of the job API over real HTTP:
// submit, status, streaming results, cached-run lookup, the registry
// listing, the lease protocol (via workers speaking only the Client), and
// the counters — plus a structured validation failure per endpoint that
// can produce one.
func TestAPISurface(t *testing.T) {
	coord := NewCoordinator(Options{})
	srv := httptest.NewServer(NewServer(coord))
	defer srv.Close()
	client := NewClient(srv.URL)

	// POST /v1/sweeps — valid submission.
	grid := []spec.Spec{
		{Protocol: "push-pull", N: 12, F: 1, Seed: 1},
		{Protocol: "ears", Adversary: "ugf", N: 12, F: 2, Seed: 2},
	}
	resp, err := client.Submit(SweepRequest{Name: "api", Specs: grid})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Total != 2 || resp.ID == "" {
		t.Fatalf("submit response %+v", resp)
	}

	// GET /v1/sweeps/{id} — pending status.
	st, err := client.Status(resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 0 || st.Total != 2 || st.Finished {
		t.Errorf("pending status %+v", st)
	}

	// Workers over HTTP: the Client satisfies Backend, so the lease
	// endpoints get exercised end to end.
	stop := startWorkers(t, client, 2)
	defer stop()

	// GET /v1/sweeps/{id}/results — stream to completion.
	var events []ResultEvent
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := client.Stream(ctx, resp.ID, 0, func(ev ResultEvent) error {
		events = append(events, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("streamed %d events, want 2", len(events))
	}
	for _, ev := range events {
		if ev.Outcome == nil || ev.Err != nil {
			t.Errorf("event %+v: want clean outcome", ev)
		}
	}

	// Streaming with ?from= resumes mid-feed.
	var tail []ResultEvent
	if err := client.Stream(ctx, resp.ID, 1, func(ev ResultEvent) error {
		tail = append(tail, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(tail) != 1 || !reflect.DeepEqual(tail[0], events[1]) {
		t.Errorf("from=1 stream returned %+v", tail)
	}

	// GET /v1/runs/{fp} — cached run by fingerprint.
	rec, err := client.Run(events[0].Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Fingerprint != events[0].Fingerprint || rec.Outcome == nil {
		t.Errorf("run record %+v", rec)
	}
	if !reflect.DeepEqual(*rec.Outcome, *events[0].Outcome) {
		t.Error("cached outcome differs from streamed outcome")
	}

	// Finished status carries progress and counters.
	st, err = client.Status(resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Finished || st.Done != 2 || st.Progress.Done != 2 {
		t.Errorf("finished status %+v", st)
	}

	// GET /v1/counters.
	ct, err := client.Counters()
	if err != nil {
		t.Fatal(err)
	}
	if ct.Computed != 2 {
		t.Errorf("counters %+v, want 2 computed", ct)
	}

	// GET /v1/registry — schemas for both sides of a spec.
	var reg struct {
		SpecVersion int `json:"spec_version"`
		Protocols   []struct {
			Name   string            `json:"name"`
			Params []json.RawMessage `json:"params"`
		} `json:"protocols"`
		Adversaries []struct {
			Name string `json:"name"`
		} `json:"adversaries"`
	}
	hres, err := http.Get(srv.URL + "/v1/registry")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(hres.Body).Decode(&reg); err != nil {
		t.Fatal(err)
	}
	hres.Body.Close()
	if reg.SpecVersion != spec.Version || len(reg.Protocols) == 0 || len(reg.Adversaries) == 0 {
		t.Errorf("registry listing: version %d, %d protocols, %d adversaries",
			reg.SpecVersion, len(reg.Protocols), len(reg.Adversaries))
	}
	foundSEARS := false
	for _, p := range reg.Protocols {
		if p.Name == "sears" && len(p.Params) > 0 {
			foundSEARS = true
		}
	}
	if !foundSEARS {
		t.Error("registry listing misses sears or its parameter schemas")
	}
}

// TestAPIValidationFailures: malformed requests come back as structured
// 400s naming the offending field and parameter — never a 500.
func TestAPIValidationFailures(t *testing.T) {
	coord := NewCoordinator(Options{})
	srv := httptest.NewServer(NewServer(coord))
	defer srv.Close()

	post := func(t *testing.T, body string) (int, errorBody) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var eb errorBody
		json.NewDecoder(resp.Body).Decode(&eb)
		return resp.StatusCode, eb
	}

	cases := []struct {
		name, body   string
		field, param string
	}{
		{"bad json", `{"specs": [`, "", ""},
		{"unknown request field", `{"specs":[],"bogus":1}`, "", ""},
		{"empty grid", `{"specs":[]}`, "specs", ""},
		{"unknown protocol", `{"specs":[{"protocol":"nope","n":10,"f":1}]}`, "protocol", ""},
		{"bad param", `{"specs":[{"protocol":"sears","protocol_params":{"epsilon":7},"n":10,"f":1}]}`, "protocol_params", "epsilon"},
		{"bad n", `{"specs":[{"protocol":"ears","n":0,"f":0}]}`, "n", ""},
		{"removed stats_every", `{"specs":[{"protocol":"ears","n":10,"f":1,"stats_every":4}]}`, "", ""},
		{"removed keep_per_process", `{"specs":[{"protocol":"ears","n":10,"f":1,"keep_per_process":true}]}`, "", ""},
	}
	for _, tc := range cases {
		status, eb := post(t, tc.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, status)
			continue
		}
		if eb.Error.Msg == "" {
			t.Errorf("%s: no structured error body", tc.name)
			continue
		}
		if eb.Error.Field != tc.field || eb.Error.Param != tc.param {
			t.Errorf("%s: error at %q/%q, want %q/%q (%s)",
				tc.name, eb.Error.Field, eb.Error.Param, tc.field, tc.param, eb.Error.Msg)
		}
	}

	// Unknown sweep and run IDs are structured 404s.
	for _, path := range []string{"/v1/sweeps/s999", "/v1/sweeps/s999/results", "/v1/runs/0123456789abcdef", "/v1/runs/../etc"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}

	// Idle lease long-poll answers 204, not an error.
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/leases", nil)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	resp, err := http.DefaultClient.Do(req.WithContext(ctx))
	if err == nil {
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Errorf("idle lease poll: status %d, want 204", resp.StatusCode)
		}
	}

	// ?from= validation.
	sub, err := coord.Submit(SweepRequest{Specs: []spec.Spec{{Protocol: "push-pull", N: 8, F: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	badFrom, err := http.Get(srv.URL + "/v1/sweeps/" + sub.ID + "/results?from=-1")
	if err != nil {
		t.Fatal(err)
	}
	badFrom.Body.Close()
	if badFrom.StatusCode != http.StatusBadRequest {
		t.Errorf("from=-1: status %d, want 400", badFrom.StatusCode)
	}
}

// TestWorkerCancelledRunRequeues: a worker shut down mid-run reports a
// cancelled outcome, which the coordinator requeues rather than caches —
// the next worker computes it fresh. That worker is an older build, whose
// outcome carries per-process counters and an interval series; its post
// settles the run all the same.
func TestWorkerCancelledRunRequeues(t *testing.T) {
	coord := NewCoordinator(Options{})
	srv := httptest.NewServer(NewServer(coord))
	defer srv.Close()
	if _, err := coord.Submit(SweepRequest{Specs: []spec.Spec{{Protocol: "push-pull", N: 8, F: 1, Seed: 9}}}); err != nil {
		t.Fatal(err)
	}
	lease, err := coord.Acquire(context.Background())
	if err != nil || lease == nil {
		t.Fatal(err)
	}
	if err := coord.Complete(lease.ID, CompleteRequest{Outcome: &sim.Outcome{Cancelled: true}}); err != nil {
		t.Fatal(err)
	}
	lease2, err := coord.Acquire(context.Background())
	if err != nil || lease2 == nil {
		t.Fatal("cancelled run was not requeued")
	}
	if lease2.Fingerprint != lease.Fingerprint {
		t.Errorf("requeued fingerprint %s, want %s", lease2.Fingerprint, lease.Fingerprint)
	}
	if _, ok := coord.Run(lease.Fingerprint); ok {
		t.Error("cancelled outcome was cached")
	}

	cfg, err := lease2.Spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	o, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(CompleteRequest{Outcome: &o})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/leases/"+lease2.ID, "application/json",
		strings.NewReader(simtest.LegacyOutcomePopulated(string(body))))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("older worker's post: status %d, want 204", resp.StatusCode)
	}
	if rec, ok := coord.Run(lease.Fingerprint); !ok || rec.Outcome == nil ||
		!reflect.DeepEqual(rec.Outcome.StripWall(), o.StripWall()) {
		t.Errorf("older worker's run settled as %+v (ok=%v), want outcome %+v", rec, ok, o)
	}
}
