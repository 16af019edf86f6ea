package service

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/ugf-sim/ugf/internal/runner"
)

// Cache is the content-addressed result store: one immutable Record per
// canonical spec fingerprint. A run is a pure function of its canonical
// spec (which includes the seed), so a fingerprint's record never needs
// invalidation — the cache is write-once per key, shared safely across
// sweeps and coordinator restarts.
//
// It is the journal's runner.AppendLog under another key: records live in
// memory and, when the cache is opened with a directory, in one JSONL file
// under it — one O_APPEND line per Put, loaded when the cache opens, a
// torn tail skipped. Records another process appends to the same file
// become visible at the next open.
type Cache struct {
	*runner.AppendLog[string, Record]
}

// NewCache opens a cache. dir, when non-empty, is created if needed and
// holds the cache.jsonl log, surviving coordinator restarts; "" keeps
// records in memory only.
func NewCache(dir string) (*Cache, error) {
	path := ""
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("service: cache: %w", err)
		}
		path = filepath.Join(dir, "cache.jsonl")
	}
	log, err := runner.OpenLog(path, true, func(rec Record) (string, bool) {
		return rec.Fingerprint, rec.Fingerprint != "" && (rec.Outcome != nil || rec.Err != nil)
	})
	if err != nil {
		return nil, fmt.Errorf("service: cache: %w", err)
	}
	return &Cache{log}, nil
}
