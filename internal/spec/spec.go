// Package spec defines the canonical, versioned, serializable description
// of one simulation run — the stable contract between the public API, the
// sweep service, the run journal, and the content-addressed result cache.
//
// A Spec names its protocol and adversary through the registries
// (internal/gossip, internal/adversary) with parameter overrides validated
// against the registries' schemas, and carries every Config field that
// determines the run's Outcome: N, F, seed, horizon, event cap, link-fault
// plan, topology and stall window. Outcome-neutral knobs — Workers/shards,
// tracing, sampling, wall-clock watchdogs — are deliberately excluded, so
// the same spec fingerprints identically however it is executed.
//
// # Canonical form and fingerprints
//
// Canonicalize resolves a spec to its canonical form: names resolved,
// parameters reduced to the minimal diff against the registry defaults,
// the fault plan re-rendered in ParseFaultPlan's normal form, the version
// pinned. CanonicalJSON marshals that form with a fixed field order and
// sorted parameter keys, and Fingerprint hashes those bytes with FNV-64a —
// the one fingerprint implementation in the codebase, shared by the run
// journal and the batch dedup (SeriesFingerprint), the result cache, and
// the golden matrices (OutcomeHash). Two specs that build the same run —
// whatever field order, default elision, or parameter spelling their JSON
// arrived with — fingerprint identically. A series fingerprint keys
// content only: the series name and run count are labels and plan sizes,
// not inputs of any run.
//
// # Versioning rules
//
// Version 1 is the current encoding. A spec with Version 0 is read as the
// current version (the field is elided from hand-written specs);
// canonical form always pins it explicitly. Any change that alters the
// meaning of existing canonical encodings — a renamed field, a changed
// default, a new value encoding — must bump Version and keep a decoder
// for the old one; changes that only add optional fields (elided when
// zero) keep the version, because old canonical encodings remain valid
// and fingerprint-stable. Registry renames are version bumps too: the
// registry name is part of the cache key.
package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"

	"github.com/ugf-sim/ugf/internal/adversary"
	"github.com/ugf-sim/ugf/internal/gossip"
	"github.com/ugf-sim/ugf/internal/params"
	"github.com/ugf-sim/ugf/internal/sim"
)

// Version is the current spec encoding version.
const Version = 1

// Spec is the canonical description of one run: a serializable, versioned,
// validated alternative to building a sim.Config by hand. The JSON field
// order below is the canonical encoding order; map-valued parameters
// marshal with sorted keys, so CanonicalJSON is deterministic.
type Spec struct {
	// Version is the encoding version; 0 is read as the current Version.
	Version int `json:"v,omitempty"`
	// Protocol is the registry name of the protocol (gossip.Names).
	Protocol string `json:"protocol"`
	// ProtocolParams overrides protocol parameters by schema name.
	ProtocolParams map[string]float64 `json:"protocol_params,omitempty"`
	// Adversary is the registry name of the adversary (adversary.Names);
	// "" is read as "none".
	Adversary string `json:"adversary,omitempty"`
	// AdversaryParams overrides adversary parameters by schema name.
	AdversaryParams map[string]float64 `json:"adversary_params,omitempty"`
	// N and F mirror sim.Config.
	N int `json:"n"`
	F int `json:"f"`
	// Seed determines every random choice of the run; a (Spec, Seed) pair
	// fully determines the Outcome, which is what makes the fingerprint a
	// cache key.
	Seed uint64 `json:"seed"`
	// Horizon and MaxEvents mirror sim.Config (0: engine defaults).
	Horizon   int64 `json:"horizon,omitempty"`
	MaxEvents int64 `json:"max_events,omitempty"`
	// Faults is the link-fault plan in sim.ParseFaultPlan syntax ("" for
	// none); canonical form re-renders it via FaultPlan.String.
	Faults string `json:"faults,omitempty"`
	// Topology is the communication graph in sim.ParseTopology syntax
	// ("ring", "k-regular,k=4", …). The complete graph — the paper's
	// default — always elides: "" and "complete" canonicalize to the
	// absent field, so every pre-topology canonical encoding (and its
	// fingerprint) is unchanged. This is the default-elision rule new
	// optional fields must follow to keep the version at 1.
	Topology string `json:"topology,omitempty"`
	// StallWindow mirrors sim.Config.StallWindow (0: off).
	StallWindow int64 `json:"stall_window,omitempty"`
}

// Error is a structured spec-validation failure: the offending field, the
// offending parameter within it (when applicable), and why. The job API
// serializes it into 400 responses.
type Error struct {
	// Field names the offending Spec field ("protocol", "adversary_params",
	// "n", …).
	Field string `json:"field"`
	// Param is the offending parameter name within Field, when the failure
	// is a parameter failure.
	Param string `json:"param,omitempty"`
	// Msg describes the failure.
	Msg string `json:"msg"`
}

func (e *Error) Error() string {
	where := e.Field
	if e.Param != "" {
		where += "." + e.Param
	}
	return fmt.Sprintf("spec: %s: %s", where, e.Msg)
}

// fieldError wraps a registry/params failure with its Spec field.
func fieldError(field string, err error) *Error {
	if pe, ok := err.(*params.Error); ok {
		return &Error{Field: field, Param: pe.Param, Msg: pe.Msg}
	}
	return &Error{Field: field, Msg: err.Error()}
}

// Validate checks the spec without building it: version, system sizes,
// registry names, parameter schemas and bounds, and the fault-plan
// syntax. It returns a *Error describing the first failure.
func (s Spec) Validate() error {
	_, err := s.Config()
	return err
}

// Config resolves the spec into a runnable sim.Config — the one blessed
// path from a serialized spec to a configuration: registry lookup by
// name, schema-validated parameter overrides, parsed fault plan. The
// returned error is a *Error.
func (s Spec) Config() (sim.Config, error) {
	if s.Version != 0 && s.Version != Version {
		return sim.Config{}, &Error{Field: "v", Msg: fmt.Sprintf("unsupported spec version %d (this build speaks version %d)", s.Version, Version)}
	}
	if s.N < 1 {
		return sim.Config{}, &Error{Field: "n", Msg: fmt.Sprintf("N = %d, need N ≥ 1", s.N)}
	}
	if s.F < 0 || s.F >= s.N {
		return sim.Config{}, &Error{Field: "f", Msg: fmt.Sprintf("F = %d, need 0 ≤ F < N = %d", s.F, s.N)}
	}
	if s.Horizon < 0 {
		return sim.Config{}, &Error{Field: "horizon", Msg: fmt.Sprintf("Horizon = %d, need ≥ 0", s.Horizon)}
	}
	if s.MaxEvents < 0 {
		return sim.Config{}, &Error{Field: "max_events", Msg: fmt.Sprintf("MaxEvents = %d, need ≥ 0", s.MaxEvents)}
	}
	if s.StallWindow < 0 {
		return sim.Config{}, &Error{Field: "stall_window", Msg: fmt.Sprintf("StallWindow = %d, need ≥ 0", s.StallWindow)}
	}
	if s.Protocol == "" {
		return sim.Config{}, &Error{Field: "protocol", Msg: "protocol is required"}
	}
	proto, err := gossip.Build(s.Protocol, s.ProtocolParams)
	if err != nil {
		return sim.Config{}, fieldError(protoField(err), err)
	}
	advName := s.Adversary
	if advName == "" {
		advName = "none"
	}
	adv, err := adversary.Build(advName, s.AdversaryParams)
	if err != nil {
		return sim.Config{}, fieldError(advField(err), err)
	}
	plan, err := sim.ParseFaultPlan(s.Faults)
	if err != nil {
		return sim.Config{}, &Error{Field: "faults", Msg: err.Error()}
	}
	topo, err := sim.ParseTopology(s.Topology)
	if err != nil {
		return sim.Config{}, &Error{Field: "topology", Msg: err.Error()}
	}
	return sim.Config{
		N: s.N, F: s.F, Protocol: proto, Adversary: adv, Seed: s.Seed,
		Horizon: sim.Step(s.Horizon), MaxEvents: s.MaxEvents,
		Faults: plan, Topology: topo, StallWindow: s.StallWindow,
	}, nil
}

// protoField routes a protocol build error to its Spec field: parameter
// failures belong to protocol_params, name failures to protocol.
func protoField(err error) string {
	if _, ok := err.(*params.Error); ok {
		return "protocol_params"
	}
	return "protocol"
}

func advField(err error) string {
	if _, ok := err.(*params.Error); ok {
		return "adversary_params"
	}
	return "adversary"
}

// FromConfig extracts the canonical Spec of a sim.Config: the inverse of
// Config, defined for configurations whose protocol and adversary are
// registry types. Custom protocol or adversary implementations have no
// spec encoding (and therefore no cache identity); FromConfig reports
// them with an error.
func FromConfig(cfg sim.Config) (Spec, error) {
	protoName, protoParams, ok := gossip.Extract(cfg.Protocol)
	if !ok {
		return Spec{}, &Error{Field: "protocol", Msg: fmt.Sprintf("protocol %T is not a registry type and has no spec encoding", cfg.Protocol)}
	}
	advName, advParams, ok := adversary.Extract(cfg.Adversary)
	if !ok {
		return Spec{}, &Error{Field: "adversary", Msg: fmt.Sprintf("adversary %T is not a registry type and has no spec encoding", cfg.Adversary)}
	}
	s := Spec{
		Version:  Version,
		Protocol: protoName, ProtocolParams: protoParams,
		Adversary: advName, AdversaryParams: advParams,
		N: cfg.N, F: cfg.F, Seed: cfg.Seed,
		Horizon: int64(cfg.Horizon), MaxEvents: cfg.MaxEvents,
		StallWindow: cfg.StallWindow,
	}
	if cfg.Faults.Active() {
		s.Faults = cfg.Faults.String()
	}
	if cfg.Topology.Active() {
		s.Topology = cfg.Topology.String()
	}
	return s, nil
}

// Canonicalize resolves the spec to its canonical form: the form every
// equivalent spelling of the same run reduces to. It builds the effective
// configuration and re-extracts it, so parameter maps collapse to the
// minimal diff against the registry defaults (explicitly spelling out a
// default produces the identical canonical form as eliding it), "" and
// "none" adversaries unify, inactive fault plans vanish, and the version
// is pinned. The seed survives untouched — it is part of the run's
// identity.
func (s Spec) Canonicalize() (Spec, error) {
	cfg, err := s.Config()
	if err != nil {
		return Spec{}, err
	}
	out, err := FromConfig(cfg)
	if err != nil {
		// Unreachable for specs that passed Config: registry-built
		// instances always extract.
		return Spec{}, err
	}
	return out, nil
}

// CanonicalJSON returns the canonical encoding of the spec: the
// Canonicalize form marshaled with the fixed field order of the Spec
// struct and sorted parameter keys. Specs that build the same run yield
// byte-identical canonical JSON.
func (s Spec) CanonicalJSON() ([]byte, error) {
	c, err := s.Canonicalize()
	if err != nil {
		return nil, err
	}
	return json.Marshal(c) // encoding/json sorts map keys; field order is fixed
}

// Fingerprint returns the spec's content address: the FNV-64a hash of its
// canonical JSON, in the journal's 16-hex-digit format. It is stable
// across field reordering, default elision, and parameter spelling, and
// moves with anything that changes the run's outcome. Invalid specs —
// which have no canonical form — are fingerprinted over their plain JSON
// encoding instead, so the function is total; such fingerprints never
// collide with canonical ones in practice because canonical specs always
// carry a resolvable registry name.
func (s Spec) Fingerprint() string {
	b, err := s.CanonicalJSON()
	if err != nil {
		raw, _ := json.Marshal(s)
		return sum64(append([]byte("invalid|"), raw...))
	}
	return sum64(b)
}

// ParseSpec decodes a JSON spec, rejecting unknown fields and validating
// the result. The input's field order is irrelevant: the parsed spec
// canonicalizes and fingerprints identically however it was spelled.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	if err := unmarshalStrict(data, &s); err != nil {
		return Spec{}, &Error{Field: "", Msg: err.Error()}
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

func unmarshalStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// SeriesFingerprint identifies the content of a runner series — base
// seed and the outcome-determining content of its base configuration —
// so that run r of two series with equal fingerprints is the same
// execution: run r's seed is xrand.Derive(baseSeed, r) whatever the
// series is called or how many runs it plans. It is the run store's key
// (with the run index) and the within-batch dedup key. Registry-typed
// configurations fingerprint through their canonical spec encoding (seed
// zeroed: runs derive per-run seeds from the base seed and index);
// custom protocol or adversary types fall back to an opaque printed
// representation, which still captures tuning fields Name() omits.
// Outcome-neutral knobs — Workers, Trace, Sample, progress — are
// deliberately excluded, so a journal written at -workers 8 resumes
// cleanly at -workers 1.
func SeriesFingerprint(baseSeed uint64, base sim.Config) string {
	prefix := fmt.Sprintf("series|%d|", baseSeed)
	if sp, err := FromConfig(base); err == nil {
		sp.Seed = 0
		if b, err := sp.CanonicalJSON(); err == nil {
			return sum64(append([]byte(prefix), b...))
		}
	}
	// Opaque fallback: %T%+v captures the concrete type and every exported
	// field of custom protocols/adversaries. Faults and the stall window
	// joined the fingerprint with the spec encoding (they change outcomes);
	// the fallback includes them too.
	faults := ""
	if base.Faults.Active() {
		faults = base.Faults.String()
	}
	topo := ""
	if base.Topology.Active() {
		topo = base.Topology.String()
	}
	opaque := fmt.Sprintf("opaque|%d|%d|%d|%d|%T%+v|%T%+v|%s|%s|%d",
		base.N, base.F, base.Horizon, base.MaxEvents,
		base.Protocol, base.Protocol, base.Adversary, base.Adversary,
		faults, topo, base.StallWindow)
	return sum64([]byte(prefix + opaque))
}

// OutcomeHash is the content hash of a deterministic outcome: FNV-64a
// over the JSON encoding of o.StripWall(). Every outcome field and every
// Stats counter feed the hash, so an engine change that shifts any of them
// by one moves it. The golden matrices pin
// these hashes; the sweep service uses them to assert byte-identity
// between distributed and local execution.
func OutcomeHash(o sim.Outcome) string {
	js, err := json.Marshal(o.StripWall())
	if err != nil {
		// Outcome is a plain data struct; Marshal cannot fail on it.
		panic(fmt.Sprintf("spec: marshal outcome: %v", err))
	}
	return sum64(js)
}

// sum64 is the codebase's one fingerprint hash: FNV-64a rendered as 16
// hex digits.
func sum64(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}
