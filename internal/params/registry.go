package params

import (
	"fmt"
	"reflect"
)

// Entry is one registered instance: its registry name, the configured
// default instance (the paper's experimental parameters), and the
// machine-readable schemas of its tunable parameters — what the sweep
// service validates submitted specs against.
type Entry[T any] struct {
	// Name is the registry name ("push-pull", "strategy-2.1.0", …).
	Name string
	// Instance is the configured default.
	Instance T
	// Params describes the entry's tunable parameters (exported struct
	// fields, lowercased), with defaults and bounds.
	Params []Schema
}

// Registry is an ordered table of entries: the one implementation behind
// the protocol registry (internal/gossip) and the adversary registry
// (internal/adversary), which keep only their tables and bounds. The
// order entries were added in is the order Names lists them and Extract
// scans them, and with it part of every spec fingerprint.
type Registry[T any] struct {
	// What prefixes unknown-name errors ("gossip: unknown protocol").
	What string
	// Bounds constrains the parameters of every entry; see Describe.
	Bounds  Bounds
	entries []Entry[T]
}

// Add appends instance under name, with the schemas Describe derives from
// it — so an entry's schemas always match its instance's fields.
func (r *Registry[T]) Add(name string, instance T) {
	r.entries = append(r.entries, Entry[T]{name, instance, Describe(instance, r.Bounds)})
}

func (r *Registry[T]) find(name string) (Entry[T], error) {
	for _, e := range r.entries {
		if e.Name == name {
			return e, nil
		}
	}
	return Entry[T]{}, fmt.Errorf("%s %q (have %v)", r.What, name, r.Names())
}

// ByName returns the configured default instance registered under name.
func (r *Registry[T]) ByName(name string) (T, bool) {
	e, err := r.find(name)
	return e.Instance, err == nil
}

// MustByName is ByName for static names; it panics on unknown ones.
func (r *Registry[T]) MustByName(name string) T {
	e, err := r.find(name)
	if err != nil {
		panic(err.Error())
	}
	return e.Instance
}

// Names lists the registry names in the order they were added.
func (r *Registry[T]) Names() []string {
	names := make([]string, len(r.entries))
	for i, e := range r.entries {
		names[i] = e.Name
	}
	return names
}

// Entries lists the entries in Names order.
func (r *Registry[T]) Entries() []Entry[T] {
	return append([]Entry[T](nil), r.entries...)
}

// Build constructs the named instance with the given parameter overrides
// applied on top of the entry's configured default, validated against the
// entry's schemas. Unknown names, unknown parameters, and out-of-bounds or
// mistyped values return an error (a *Error for parameter failures)
// instead of a misconfigured instance.
func (r *Registry[T]) Build(name string, p map[string]float64) (T, error) {
	e, err := r.find(name)
	if err != nil || len(p) == 0 {
		return e.Instance, err
	}
	v, err := Apply(e.Instance, p, e.Params)
	if err != nil {
		var none T
		return none, err
	}
	return v.(T), nil
}

// Extract maps a concrete value back to (registry name, parameter
// overrides): the inverse of Build, used by the spec canonicalizer. The
// name is the entry whose default instance matches the value exactly
// (so core.UGF{FixedK: 1, FixedL: 1} names "ugf" and core.UGF{} names
// "ugf-sampled"), or — when parameters were tuned — the first entry in
// Names order of the same dynamic type; the returned map holds exactly
// the fields that differ from that entry's default. ok is false for
// values whose type is not registered (custom types have no spec encoding
// and no cache identity).
func (r *Registry[T]) Extract(v T) (name string, overrides map[string]float64, ok bool) {
	for _, e := range r.entries {
		if reflect.TypeOf(e.Instance) != reflect.TypeOf(v) {
			continue
		}
		diff := Diff(v, e.Instance)
		if len(diff) == 0 {
			return e.Name, nil, true // exact match on the configured default
		}
		if !ok {
			name, overrides, ok = e.Name, diff, true
		}
	}
	return name, overrides, ok
}
