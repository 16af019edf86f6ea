package spec

import (
	"encoding/json"
	"strings"
	"testing"

	"github.com/ugf-sim/ugf/internal/core"
	"github.com/ugf-sim/ugf/internal/gossip"
	"github.com/ugf-sim/ugf/internal/sim"
)

// TestFingerprintIgnoresFieldOrder: the same spec serialized with
// different JSON field orders parses to the same fingerprint — the cache
// key is content-addressed, not encoding-addressed.
func TestFingerprintIgnoresFieldOrder(t *testing.T) {
	a := `{"protocol":"ears","adversary":"ugf","n":50,"f":10,"seed":7}`
	b := `{"seed":7,"f":10,"n":50,"adversary":"ugf","protocol":"ears"}`
	sa, err := ParseSpec([]byte(a))
	if err != nil {
		t.Fatal(err)
	}
	sb, err := ParseSpec([]byte(b))
	if err != nil {
		t.Fatal(err)
	}
	if sa.Fingerprint() != sb.Fingerprint() {
		t.Errorf("field order changed the fingerprint: %s vs %s", sa.Fingerprint(), sb.Fingerprint())
	}
}

// TestFingerprintIgnoresDefaultElision: spelling out a parameter's
// default value (or the implicit "none" adversary, or version 1
// explicitly) fingerprints identically to eliding it.
func TestFingerprintIgnoresDefaultElision(t *testing.T) {
	base := Spec{Protocol: "sears", N: 50, F: 10, Seed: 3}
	defaults := gossip.MustByName("sears").(gossip.SEARS)
	spelled := Spec{
		Version:  Version,
		Protocol: "sears",
		ProtocolParams: map[string]float64{
			"c":       defaults.C,
			"epsilon": defaults.Epsilon,
		},
		Adversary: "none",
		N:         50, F: 10, Seed: 3,
	}
	if got, want := spelled.Fingerprint(), base.Fingerprint(); got != want {
		t.Errorf("default elision changed the fingerprint: %s vs %s", got, want)
	}
	cj, err := spelled.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := base.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(cj) != string(bj) {
		t.Errorf("canonical JSON differs:\n%s\n%s", cj, bj)
	}
}

// TestFingerprintMovesWithOutcomeFields: every field that changes the
// run's outcome moves the fingerprint.
func TestFingerprintMovesWithOutcomeFields(t *testing.T) {
	base := Spec{Protocol: "ears", Adversary: "ugf", N: 50, F: 10, Seed: 7}
	fp := base.Fingerprint()
	mutations := map[string]Spec{}
	add := func(name string, mut func(*Spec)) {
		s := base
		mut(&s)
		mutations[name] = s
	}
	add("protocol", func(s *Spec) { s.Protocol = "push-pull" })
	add("protocol param", func(s *Spec) { s.ProtocolParams = map[string]float64{"windowscale": 2} })
	add("adversary", func(s *Spec) { s.Adversary = "oblivious" })
	add("adversary param", func(s *Spec) { s.AdversaryParams = map[string]float64{"q1": 0.25} })
	add("n", func(s *Spec) { s.N = 51 })
	add("f", func(s *Spec) { s.F = 11 })
	add("seed", func(s *Spec) { s.Seed = 8 })
	add("horizon", func(s *Spec) { s.Horizon = 1000 })
	add("max events", func(s *Spec) { s.MaxEvents = 1 << 20 })
	add("faults", func(s *Spec) { s.Faults = "drop=0.1" })
	add("topology", func(s *Spec) { s.Topology = "ring" })
	add("topology param", func(s *Spec) { s.Topology = "k-regular,k=6" })
	add("stall window", func(s *Spec) { s.StallWindow = 4096 })
	for name, s := range mutations {
		if err := s.Validate(); err != nil {
			t.Errorf("%s mutation invalid: %v", name, err)
			continue
		}
		if s.Fingerprint() == fp {
			t.Errorf("%s change did not move the fingerprint", name)
		}
	}
}

// TestCanonicalRoundTrip: Config ∘ FromConfig is the identity on
// registry-built configurations, and canonical specs are fixed points of
// canonicalization.
func TestCanonicalRoundTrip(t *testing.T) {
	s := Spec{
		Protocol:        "sears",
		ProtocolParams:  map[string]float64{"epsilon": 0.25},
		Adversary:       "ugf",
		AdversaryParams: map[string]float64{"tau": 100},
		N:               64, F: 8, Seed: 99,
		Faults:      "drop=0.05,seed=3",
		StallWindow: 1 << 12,
	}
	cfg, err := s.Config()
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint() != s.Fingerprint() {
		t.Errorf("FromConfig(Config(s)) moved the fingerprint")
	}
	canon, err := s.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	canon2, err := canon.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := json.Marshal(canon)
	j2, _ := json.Marshal(canon2)
	if string(j1) != string(j2) {
		t.Errorf("canonicalization is not idempotent:\n%s\n%s", j1, j2)
	}
	if sears, ok := cfg.Protocol.(gossip.SEARS); !ok || sears.Epsilon != 0.25 {
		t.Errorf("protocol params not applied: %+v", cfg.Protocol)
	}
	if u, ok := cfg.Adversary.(core.UGF); !ok || u.Tau != 100 || u.FixedK != 1 {
		t.Errorf("adversary params not applied over the registry default: %+v", cfg.Adversary)
	}
}

// TestUGFVariantsExtractDistinctly: the two core.UGF registrations
// extract back to their own names, so "ugf" and "ugf-sampled" keep
// distinct cache identities.
func TestUGFVariantsExtractDistinctly(t *testing.T) {
	fixed, err := FromConfig(sim.Config{N: 10, Protocol: gossip.PushPull{}, Adversary: core.UGF{FixedK: 1, FixedL: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if fixed.Adversary != "ugf" || len(fixed.AdversaryParams) != 0 {
		t.Errorf("UGF{1,1} extracted to %q %v, want ugf with no params", fixed.Adversary, fixed.AdversaryParams)
	}
	sampled, err := FromConfig(sim.Config{N: 10, Protocol: gossip.PushPull{}, Adversary: core.UGF{}})
	if err != nil {
		t.Fatal(err)
	}
	if sampled.Adversary != "ugf-sampled" || len(sampled.AdversaryParams) != 0 {
		t.Errorf("UGF{} extracted to %q %v, want ugf-sampled with no params", sampled.Adversary, sampled.AdversaryParams)
	}
	if fixed.Fingerprint() == sampled.Fingerprint() {
		t.Error("ugf and ugf-sampled share a fingerprint")
	}
}

// TestValidationErrors: malformed specs fail with structured errors
// naming the offending field (and parameter), the contract the job API's
// 400 responses rely on.
func TestValidationErrors(t *testing.T) {
	cases := []struct {
		name        string
		json        string
		field, para string
	}{
		{"missing protocol", `{"n":10,"f":1,"seed":1}`, "protocol", ""},
		{"unknown protocol", `{"protocol":"nope","n":10,"f":1}`, "protocol", ""},
		{"unknown protocol param", `{"protocol":"ears","protocol_params":{"zap":1},"n":10,"f":1}`, "protocol_params", "zap"},
		{"out-of-bounds param", `{"protocol":"sears","protocol_params":{"epsilon":2},"n":10,"f":1}`, "protocol_params", "epsilon"},
		{"fractional int param", `{"protocol":"ears","adversary":"ugf","adversary_params":{"fixedk":1.5},"n":10,"f":1}`, "adversary_params", "fixedk"},
		{"unknown adversary", `{"protocol":"ears","adversary":"nope","n":10,"f":1}`, "adversary", ""},
		{"params on none", `{"protocol":"ears","adversary":"none","adversary_params":{"q1":1},"n":10,"f":1}`, "adversary_params", ""},
		{"n too small", `{"protocol":"ears","n":0,"f":0}`, "n", ""},
		{"f out of range", `{"protocol":"ears","n":10,"f":10}`, "f", ""},
		{"bad faults", `{"protocol":"ears","n":10,"f":1,"faults":"zap=1"}`, "faults", ""},
		{"bad topology kind", `{"protocol":"ears","n":10,"f":1,"topology":"warp"}`, "topology", ""},
		{"bad topology degree", `{"protocol":"ears","n":10,"f":1,"topology":"k-regular,k=3"}`, "topology", ""},
		{"bad version", `{"v":9,"protocol":"ears","n":10,"f":1}`, "v", ""},
		{"unknown field", `{"protocol":"ears","n":10,"f":1,"bogus":true}`, "", ""},
	}
	for _, tc := range cases {
		_, err := ParseSpec([]byte(tc.json))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		se, ok := err.(*Error)
		if !ok {
			t.Errorf("%s: error is %T, want *spec.Error", tc.name, err)
			continue
		}
		if se.Field != tc.field || se.Param != tc.para {
			t.Errorf("%s: error at %q/%q, want %q/%q (%v)", tc.name, se.Field, se.Param, tc.field, tc.para, se)
		}
	}
}

// TestSeriesFingerprintFallback: configurations without a registry
// encoding (nil protocol, custom types) fingerprint through the opaque
// path, which still distinguishes everything the old journal fingerprint
// did — plus the fault/stall fields it missed — and keys content only:
// the series name and run count are not inputs of any run.
func TestSeriesFingerprintFallback(t *testing.T) {
	base := sim.Config{N: 10, F: 1}
	fp := SeriesFingerprint(1, base)
	if got := SeriesFingerprint(1, sim.Config{N: 11, F: 1}); got == fp {
		t.Error("fallback fingerprint ignored N")
	}
	if got := SeriesFingerprint(2, base); got == fp {
		t.Error("fingerprint ignored the base seed")
	}
	withStall := base
	withStall.StallWindow = 100
	if got := SeriesFingerprint(1, withStall); got == fp {
		t.Error("fallback fingerprint ignored the stall window")
	}
	withTopo := base
	withTopo.Topology = &sim.Topology{Kind: "ring"}
	if got := SeriesFingerprint(1, withTopo); got == fp {
		t.Error("fallback fingerprint ignored the topology")
	}
	// Journals of custom-type series are keyed by this value: it moves
	// only when the opaque encoding does.
	custom := sim.Config{N: 10, F: 1, Protocol: customProto{Fanout: 3}, Horizon: 500,
		Faults: &sim.FaultPlan{Seed: 2, Drop: 0.1}, StallWindow: 64}
	if got, want := SeriesFingerprint(1, custom), "ad9f415735c3af4c"; got != want {
		t.Errorf("custom-type series key %s, want %s", got, want)
	}
}

// customProto is a protocol outside the registries: it has no spec
// encoding, so series over it take the opaque fallback.
type customProto struct{ Fanout int }

func (customProto) Name() string                     { return "custom" }
func (customProto) New(envs []sim.Env) []sim.Process { return nil }

// TestTopologyCompleteElides: the complete graph is the default and must
// elide from canonical form — "" and "complete" fingerprint identically,
// so every pre-topology spec keeps its fingerprint (the default-elision
// rule that keeps the encoding at version 1).
func TestTopologyCompleteElides(t *testing.T) {
	base := Spec{Protocol: "ears", N: 20, F: 2, Seed: 5}
	complete := base
	complete.Topology = "complete"
	if got, want := complete.Fingerprint(), base.Fingerprint(); got != want {
		t.Errorf("explicit complete topology moved the fingerprint: %s vs %s", got, want)
	}
	cj, err := complete.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(cj), "topology") {
		t.Errorf("canonical JSON of a complete topology carries the field: %s", cj)
	}
	// Seeded kinds round-trip with defaults spelled out: parse ∘ String
	// is the identity, so elided parameters canonicalize to one form.
	short := base
	short.Topology = "expander"
	long := base
	long.Topology = "expander,k=4,seed=0"
	if short.Fingerprint() != long.Fingerprint() {
		t.Error("elided expander defaults changed the fingerprint")
	}
	canon, err := short.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if canon.Topology != "expander,k=4,seed=0" {
		t.Errorf("canonical topology = %q, want expander,k=4,seed=0", canon.Topology)
	}
}

// TestOutcomeHashShape: 16 lowercase hex digits, sensitive to content.
func TestOutcomeHashShape(t *testing.T) {
	a := OutcomeHash(sim.Outcome{N: 10, Seed: 1, Time: 3.5})
	b := OutcomeHash(sim.Outcome{N: 10, Seed: 1, Time: 3.6})
	if len(a) != 16 || strings.ToLower(a) != a {
		t.Errorf("hash %q is not 16 lowercase hex digits", a)
	}
	if a == b {
		t.Error("outcome content did not move the hash")
	}
}
