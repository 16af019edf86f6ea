package runner

import (
	"fmt"

	"github.com/ugf-sim/ugf/internal/sim"
	"github.com/ugf-sim/ugf/internal/spec"
)

// Journal is the AppendLog that makes a batch resumable: every completed
// outcome (and every deterministic failure) is one self-contained line
// keyed by the owning spec's content Fingerprint and the run index. An
// interrupted sweep — SIGINT, a crash, a power cut — loses at most the
// line being written; reopening the journal with resume and rerunning
// the identical batch serves the recorded runs without recomputation and
// produces byte-identical results, because a run is a pure function of
// (Config, Seed) and Go's JSON float encoding round-trips exactly.
// Entries whose fingerprint does not match any current spec are ignored,
// so a stale journal can never inject outcomes into a changed experiment.
type Journal struct {
	*AppendLog[runKey, journalRecord]
}

// runKey addresses one run by content: the Fingerprint of its series and
// the run index. The journal and Fold's within-batch dedup share it.
type runKey struct {
	fp  string
	run int
}

// journalRecord is one JSONL line. Exactly one of Outcome and Error is
// set.
type journalRecord struct {
	Fingerprint string       `json:"fp"`
	Spec        string       `json:"spec"`
	Run         int          `json:"run"`
	Outcome     *sim.Outcome `json:"outcome,omitempty"`
	Error       *RunError    `json:"error,omitempty"`
}

// Fingerprint identifies the content of a Spec — base seed and the
// outcome-determining content of the base configuration — so that run r
// of any two specs with equal fingerprints is the same execution. The
// series name and Runs are left out: neither affects a run, whose seed is
// xrand.Derive(BaseSeed, r). With the run index it keys the journal and
// Fold's within-batch dedup alike. It delegates to spec.SeriesFingerprint
// — the codebase's single fingerprint implementation, shared with the
// result cache and the golden matrices — which encodes registry-typed
// configurations canonically and falls back to printed struct
// representations for custom protocol/adversary types. Outcome-neutral
// knobs — Workers, Trace, Sample, progress — are deliberately excluded,
// so a journal written at -workers 8 resumes cleanly at -workers 1.
func Fingerprint(s Spec) string {
	return spec.SeriesFingerprint(s.BaseSeed, s.Base)
}

// OpenJournal opens (or creates) the journal at path. With resume set,
// existing records are loaded and later served by Lookup; otherwise the
// file is truncated and the batch starts from scratch. The caller owns the
// returned journal and must Close it.
func OpenJournal(path string, resume bool) (*Journal, error) {
	log, err := OpenLog(path, resume, func(rec journalRecord) (runKey, bool) {
		return runKey{rec.Fingerprint, rec.Run}, rec.Outcome != nil || rec.Error != nil
	})
	if err != nil {
		return nil, fmt.Errorf("runner: journal: %w", err)
	}
	return &Journal{log}, nil
}

// Lookup returns the recorded outcome or error of the given run, if the
// journal holds one for this exact spec.
func (j *Journal) Lookup(s Spec, run int) (sim.Outcome, *RunError, bool) {
	rec, ok := j.Get(runKey{Fingerprint(s), run})
	if rec.Outcome == nil {
		return sim.Outcome{}, rec.Error, ok
	}
	return *rec.Outcome, nil, true
}

// Record appends one finished run — an outcome or a deterministic
// RunError — as a single atomic line. Marshal or write failures are
// reported, and counted by WriteErrors, but deliberately non-fatal to the
// batch: the journal degrades to recomputing that run on resume, it never
// takes the sweep down.
func (j *Journal) Record(s Spec, run int, o *sim.Outcome, re *RunError) error {
	return j.Put(journalRecord{Fingerprint(s), s.Name, run, o, re})
}

// ErrorCount returns the number of recorded deterministic failures,
// loaded and newly written combined.
func (j *Journal) ErrorCount() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := 0
	for _, rec := range j.entries {
		if rec.Error != nil {
			n++
		}
	}
	return n
}
