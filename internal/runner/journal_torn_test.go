package runner_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/ugf-sim/ugf/internal/runner"
	"github.com/ugf-sim/ugf/internal/service"
	"github.com/ugf-sim/ugf/internal/sim"
	"github.com/ugf-sim/ugf/internal/spec"
)

// tornTails is the catalogue of corrupt log endings the loader must shrug
// off: half-written lines from a crash mid-append, binary garbage, and
// well-formed JSON of the wrong shape. It doubles as the seed corpus of
// FuzzJournalTornTail.
func tornTails() [][]byte {
	return [][]byte{
		[]byte(`{"fp":"dead","spec":"a","run":9,"outc`),             // torn mid-key
		[]byte(`{"fp":"dead","spec":"a","run":9,"outcome":{"N":5`),  // torn mid-nested-object
		[]byte(`{"fp":"dead","spec":"a","run":9,"outcome":{"N":5}`), // complete object, no newline
		[]byte("{"),                                       // minimal torn line
		[]byte("\x00\x01\x02garbage\xff\xfe"),             // binary garbage
		[]byte("null\n"),                                  // valid JSON, decodes to an empty record
		[]byte("\"just a string\"\n"),                     // valid JSON, wrong type
		[]byte("[1,2,3]\n"),                               // valid JSON, wrong shape
		[]byte(`{"fp":"dead","spec":"x","run":1}` + "\n"), // record with neither outcome nor error
		[]byte("\n\n\n"),                                  // stray blank lines
		[]byte(`{"fp":"dead","run":2,"outc` + "\n" + `{"fp":"also","ru`), // two torn lines
		{}, // empty tail
	}
}

// tornStore is one wrapper of the shared append-only log, as the torn-tail
// net sees it: write creates a store holding one outcome and one
// deterministic failure and returns its file; check reopens the store and
// asserts that both records are still served, unchanged.
type tornStore struct {
	name  string
	write func(t testing.TB) (file string)
	check func(t testing.TB, file string, tail []byte)
}

var (
	tornOutcome = sim.Outcome{Protocol: "p", Adversary: "none", N: 4, F: 1, Seed: 9, TEnd: 17,
		Quiescence: 21, Messages: 33, Time: 1.75, Gathered: true}
	tornError = &runner.RunError{Spec: "torn", Run: 1, Seed: 4, Panic: "boom", Deterministic: true}
	// tornSeries is the spec the journal records runs under. The protocol
	// may be nil: Fingerprint only formats it, and these tests never
	// execute the spec.
	tornSeries = runner.Spec{Name: "torn", Base: sim.Config{N: 4, F: 1}, Runs: 2, BaseSeed: 3}
	tornRuns   = [2]spec.Spec{{Protocol: "push-pull", N: 4, F: 1, Seed: 1}, {Protocol: "push-pull", N: 4, F: 1, Seed: 2}}
)

func tornStores() []tornStore {
	return []tornStore{
		{
			name: "journal",
			write: func(t testing.TB) string {
				file := filepath.Join(t.TempDir(), "runs.jsonl")
				j, err := runner.OpenJournal(file, false)
				if err != nil {
					t.Fatal(err)
				}
				if err := j.Record(tornSeries, 0, &tornOutcome, nil); err != nil {
					t.Fatal(err)
				}
				if err := j.Record(tornSeries, 1, nil, tornError); err != nil {
					t.Fatal(err)
				}
				if err := j.Close(); err != nil {
					t.Fatal(err)
				}
				return file
			},
			check: func(t testing.TB, file string, tail []byte) {
				j, err := runner.OpenJournal(file, true)
				if err != nil {
					t.Fatalf("resume load failed on tail %q: %v", tail, err)
				}
				defer j.Close()
				got, gotErr, ok := j.Lookup(tornSeries, 0)
				if !ok || gotErr != nil {
					t.Fatalf("tail %q: run 0 lost (ok=%v err=%v)", tail, ok, gotErr)
				}
				if !reflect.DeepEqual(got, tornOutcome) {
					t.Errorf("tail %q: run 0 outcome changed: got %+v want %+v", tail, got, tornOutcome)
				}
				_, gotRe, ok := j.Lookup(tornSeries, 1)
				if !ok || !reflect.DeepEqual(gotRe, tornError) {
					t.Errorf("tail %q: run 1 failure lost or changed: got %+v (ok=%v) want %+v", tail, gotRe, ok, tornError)
				}
			},
		},
		{
			name: "cache",
			write: func(t testing.TB) string {
				dir := t.TempDir()
				c, err := service.NewCache(dir)
				if err != nil {
					t.Fatal(err)
				}
				for i, rec := range tornRecords() {
					if err := c.Put(rec); err != nil {
						t.Fatalf("record %d: %v", i, err)
					}
				}
				if err := c.Close(); err != nil {
					t.Fatal(err)
				}
				return filepath.Join(dir, "cache.jsonl")
			},
			check: func(t testing.TB, file string, tail []byte) {
				c, err := service.NewCache(filepath.Dir(file))
				if err != nil {
					t.Fatalf("open failed on tail %q: %v", tail, err)
				}
				defer c.Close()
				for i, want := range tornRecords() {
					if got, ok := c.Get(want.Fingerprint); !ok || !reflect.DeepEqual(got, want) {
						t.Errorf("tail %q: record %d lost or changed: got %+v (ok=%v) want %+v", tail, i, got, ok, want)
					}
				}
			},
		},
	}
}

// tornRecords is what the cache store holds: an outcome and a
// deterministic failure under the fingerprints of tornRuns.
func tornRecords() [2]service.Record {
	return [2]service.Record{
		{Fingerprint: tornRuns[0].Fingerprint(), Spec: tornRuns[0], Outcome: &tornOutcome},
		{Fingerprint: tornRuns[1].Fingerprint(), Spec: tornRuns[1], Err: tornError},
	}
}

// checkTornTail writes a fresh store, appends tail to its file the way a
// crashed writer would have, and checks the reopened store.
func checkTornTail(t testing.TB, s tornStore, tail []byte) {
	t.Helper()
	file := s.write(t)
	f, err := os.OpenFile(file, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(tail); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	s.check(t, file, tail)
}

// TestJournalTornTailTable drives every catalogued corruption through the
// shared log's load path, once per wrapper. TestJournalToleratesTornTail
// covers the end-to-end ExecuteContext flow for one tail; this table pins
// the loader itself against the whole corpus that seeds the fuzz target.
func TestJournalTornTailTable(t *testing.T) {
	for _, s := range tornStores() {
		t.Run(s.name, func(t *testing.T) {
			for _, tail := range tornTails() {
				checkTornTail(t, s, tail)
			}
		})
	}
}
