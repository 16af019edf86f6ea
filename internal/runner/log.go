package runner

import (
	"bufio"
	"encoding/json"
	"errors"
	"os"
	"sync"
)

// AppendLog is an append-only JSONL file of records R indexed in memory by
// K: the one durable store of the sweep path, under both the run Journal
// (keyed by series fingerprint and run index) and the sweep service's
// result cache (keyed by canonical spec fingerprint).
//
// Every record lands in the file through a single O_APPEND write, so
// concurrent writers — goroutines or processes — never interleave partial
// lines, and a crash loses at most the line being written: a torn or
// foreign line is skipped at load time and its run recomputed. A key is
// written once; a run is a pure function of its key, so a second Put of
// the same key has nothing to add. Write failures never fail the caller's
// batch: the record stays served from memory, and the log keeps the first
// error and a count for the caller to report.
type AppendLog[K comparable, R any] struct {
	mu       sync.Mutex
	path     string   // "": memory only
	f        *os.File // nil when memory only or closed
	key      func(R) (K, bool)
	entries  map[K]R
	failed   int
	firstErr error
}

// OpenLog opens (or creates) the log at path; an empty path keeps the
// records in memory only. With resume set, existing records are loaded;
// otherwise the file is truncated. key extracts a record's index key and
// reports false for lines that decode to no usable record. The caller owns
// the returned log and must Close it.
func OpenLog[K comparable, R any](path string, resume bool, key func(R) (K, bool)) (*AppendLog[K, R], error) {
	l := &AppendLog[K, R]{path: path, key: key, entries: map[K]R{}}
	if path == "" {
		return l, nil
	}
	flags := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	if resume {
		if err := l.load(); err != nil {
			return nil, err
		}
	} else {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, err
	}
	l.f = f
	return l, nil
}

func (l *AppendLog[K, R]) load() error {
	f, err := os.Open(l.path)
	if os.IsNotExist(err) {
		return nil // first run: nothing to resume from
	}
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24) // logs from older builds can hold multi-MB per-process outcome lines
	for sc.Scan() {
		var rec R
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			continue // torn line from an interrupted write; recompute that run
		}
		if k, ok := l.key(rec); ok {
			l.entries[k] = rec
		}
	}
	return sc.Err()
}

// Get returns the record held under k.
func (l *AppendLog[K, R]) Get(k K) (R, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec, ok := l.entries[k]
	return rec, ok
}

// Put indexes rec and, unless its key is already held, appends it as one
// line. A marshal or write failure is returned and counted (WriteErrors)
// but leaves the record in memory.
func (l *AppendLog[K, R]) Put(rec R) error {
	k, ok := l.key(rec)
	if !ok {
		return errors.New("record has no key")
	}
	var line []byte
	var err error
	if l.path != "" {
		line, err = json.Marshal(rec) // outside the lock: writers serialise on the write alone
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, held := l.entries[k]; held {
		return nil
	}
	l.entries[k] = rec
	if l.path == "" {
		return nil
	}
	switch {
	case err != nil: // the record does not marshal
	case l.f == nil:
		err = errors.New("append after Close")
	default:
		_, err = l.f.Write(append(line, '\n'))
	}
	if err != nil {
		if l.failed++; l.firstErr == nil {
			l.firstErr = err
		}
	}
	return err
}

// Len returns the number of records held.
func (l *AppendLog[K, R]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// WriteErrors returns how many records did not reach the file, and the
// first error that kept one out.
func (l *AppendLog[K, R]) WriteErrors() (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed, l.firstErr
}

// Path returns the log's file path, "" for a memory-only log.
func (l *AppendLog[K, R]) Path() string { return l.path }

// Close closes the file. It is idempotent, so the usual "defer Close,
// Remove on success" pattern is safe.
func (l *AppendLog[K, R]) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// Remove closes the log and deletes its file — called after a sweep
// completes cleanly, when there is nothing left to resume.
//
// The deletion goes through a rename first: a concurrent reader that
// already opened the file keeps reading its complete contents through the
// open descriptor, and a reader that races the deletion sees either the
// intact log or a clean not-exist — never a half-deleted file reused by an
// unrelated log at the same path.
func (l *AppendLog[K, R]) Remove() error {
	if err := l.Close(); err != nil || l.path == "" {
		return err
	}
	tomb := l.path + ".removed"
	if err := os.Rename(l.path, tomb); err != nil {
		if os.IsNotExist(err) {
			return nil // already removed; nothing to resume either way
		}
		return err
	}
	return os.Remove(tomb)
}
