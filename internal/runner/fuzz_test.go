package runner_test

import "testing"

// FuzzJournalTornTail appends an arbitrary byte tail to a log holding two
// valid records — once as a journal, once as a result cache — and asserts
// the load neither fails nor loses them: the log's crash-tolerance
// contract says a torn final write costs at most the line being written,
// never the records before it. The seed corpus is the torn-tail table of
// journal_torn_test.go plus the checked-in testdata/fuzz files.
func FuzzJournalTornTail(f *testing.F) {
	for _, tail := range tornTails() {
		f.Add(tail)
	}
	f.Fuzz(func(t *testing.T, tail []byte) {
		if len(tail) > 1<<20 {
			// The loader's line buffer tops out at 16 MiB; a single
			// megaline is already far past any real torn write, and giant
			// inputs only slow the fuzzer down.
			t.Skip("tail too large")
		}
		for _, s := range tornStores() {
			checkTornTail(t, s, tail)
		}
	})
}
