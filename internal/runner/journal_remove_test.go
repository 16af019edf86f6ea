package runner

import (
	"bufio"
	"context"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
)

// TestJournalRemoveLeavesConcurrentReaderIntact: auto-remove after a
// clean sweep must not yank the file out from under a concurrent -resume
// reader. Remove renames before deleting, so a reader holding the file
// open keeps reading every complete line it had, and the original path is
// gone afterwards (no stale journal to resume from, no .removed tomb
// left behind).
func TestJournalRemoveLeavesConcurrentReaderIntact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	var calls atomic.Int64
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	specs := journalSpecs(&calls)
	if _, err := ExecuteContext(context.Background(), specs, Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	for si, s := range specs {
		for r := 0; r < s.Runs; r++ {
			o := FailedOutcome(s.Base)
			o.Seed = uint64(si*100 + r)
			if err := j.Record(s, r, &o, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := j.Len()

	// A concurrent -resume reader: opened before Remove, read after.
	reader, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()

	if err := j.Remove(); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("journal path still exists after Remove (err = %v)", err)
	}
	if _, err := os.Stat(path + ".removed"); !os.IsNotExist(err) {
		t.Errorf("Remove left a tombstone behind (err = %v)", err)
	}

	lines := 0
	sc := bufio.NewScanner(reader)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("concurrent reader failed mid-file: %v", err)
	}
	if lines != want {
		t.Errorf("concurrent reader saw %d lines, want %d", lines, want)
	}

	// Remove is idempotent: the second call finds nothing and reports no
	// error, the same contract Close has.
	if err := j.Remove(); err != nil {
		t.Errorf("second Remove: %v", err)
	}
}
