package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"

	"github.com/ugf-sim/ugf/internal/gossip"
	"github.com/ugf-sim/ugf/internal/live"
	"github.com/ugf-sim/ugf/internal/live/wire"
	"github.com/ugf-sim/ugf/internal/service"
	"github.com/ugf-sim/ugf/internal/sim"
	"github.com/ugf-sim/ugf/internal/spec"
	"github.com/ugf-sim/ugf/internal/xrand"
)

// sunk keeps the results of probed calls alive, so that the compiler cannot
// drop the calls.
var sunk uint64

// probes times, in a loop each, the public calls of the layers a run only
// reaches deep inside another call, or too briefly for a span: the RNG, the
// spec codec, the wire codec, the cache, the trace reader and TCP set-up.
func (b *bench) probes(tr *tracer) {
	root := tr.begin(-1, layerBench, "probes", "")
	defer tr.end(root)
	seed := xrand.Derive(b.seed, legChecks, 1)
	// probe records fn's calls iterations as one span and one metric.
	probe := func(layer, metric string, scale float64, calls int, fn func(i int)) {
		id := tr.begin(root, layer, metric, "")
		for i := 0; i < calls; i++ {
			fn(i)
		}
		b.record(metric, float64(tr.end(id))/float64(calls)/scale)
	}
	const ns, us, ms = 1, 1e3, 1e6

	calls := 10_000_000
	if b.smoke {
		calls = 100_000
	}
	rng := xrand.New(seed)
	probe(layerXrand, "xrand.uint64_ns", ns, calls, func(int) { sunk += rng.Uint64() })
	probe(layerXrand, "xrand.intn_except_ns", ns, calls, func(i int) { sunk += uint64(rng.IntnExcept(1000, i%1000)) })
	probe(layerXrand, "xrand.derive_ns", ns, calls, func(i int) { sunk += xrand.Derive(seed, uint64(i)) })
	// The capped sampler is the one the simulator calls; the uncapped law has
	// no mean, so its cost per call has none either.
	probe(layerXrand, "xrand.zeta2_ns", ns, calls/10, func(int) { sunk += uint64(rng.Zeta2Capped(16)) })

	// spec: the coordinator grid's series, one run each.
	series, err := grid(coordProtocols, coordAdversaries, coordNs, 1, seed)
	if err != nil {
		b.failf("probes: %v", err)
		return
	}
	specs := make([]spec.Spec, len(series))
	docs := make([][]byte, len(series))
	outcomes := make([]sim.Outcome, len(series))
	for i, s := range series {
		cfg := s.Base
		cfg.Seed = s.BaseSeed
		if specs[i], err = spec.FromConfig(cfg); err == nil {
			if docs[i], err = json.Marshal(specs[i]); err == nil {
				outcomes[i], err = sim.Run(cfg)
			}
		}
		if err != nil {
			b.failf("probes: %s: %v", s.Name, err)
			return
		}
	}
	calls, n := 20*len(series), len(series)
	probe(layerSpec, "spec.from_config_us", us, calls, func(i int) {
		sp, _ := spec.FromConfig(series[i%n].Base)
		sunk += uint64(sp.N)
	})
	probe(layerSpec, "spec.canonical_json_us", us, calls, func(i int) {
		doc, _ := specs[i%n].CanonicalJSON()
		sunk += uint64(len(doc))
	})
	probe(layerSpec, "spec.fingerprint_us", us, calls, func(i int) { sunk += uint64(len(specs[i%n].Fingerprint())) })
	probe(layerSpec, "spec.parse_us", us, calls, func(i int) {
		sp, _ := spec.ParseSpec(docs[i%n])
		sunk += uint64(sp.N)
	})
	probe(layerSpec, "spec.config_us", us, calls, func(i int) {
		cfg, _ := specs[i%n].Config()
		sunk += uint64(cfg.N)
	})
	probe(layerSpec, "spec.outcome_hash_us", us, calls, func(i int) { sunk += uint64(len(spec.OutcomeHash(outcomes[i%n]))) })

	// service: the cache on its own, written through to disk and read back
	// by a second cache opened on the same directory.
	dir := filepath.Join(b.dir, "cache-probe")
	records := make([]service.Record, 200)
	for i := range records {
		sp := specs[i%n]
		sp.Seed = xrand.Derive(seed, uint64(i))
		records[i] = service.Record{Fingerprint: sp.Fingerprint(), Spec: sp, Outcome: &outcomes[i%n]}
	}
	if cache, err := service.NewCache(dir); err != nil {
		b.failf("probes: %v", err)
	} else {
		probe(layerService, "service.cache_put_us", us, len(records), func(i int) {
			if err := cache.Put(records[i]); err != nil {
				b.failf("probes: cache put: %v", err)
			}
		})
	}
	if cache, err := service.NewCache(dir); err != nil {
		b.failf("probes: %v", err)
	} else {
		probe(layerService, "service.cache_get_us", us, len(records), func(i int) {
			if _, ok := cache.Get(records[i].Fingerprint); !ok {
				b.failf("probes: cache get: %s is missing", records[i].Fingerprint)
			}
		})
	}

	// live/wire: one envelope per registered payload kind, as the live
	// protocols' first steps emit them.
	liveN := b.sizesFor(legLive).liveN
	envelopes, err := sampleEnvelopes(liveN, seed)
	if err != nil {
		b.failf("probes: %v", err)
		return
	}
	bodies := make([][]byte, len(envelopes))
	for i := range envelopes {
		if bodies[i], err = envelopes[i].Encode(); err != nil {
			b.failf("probes: encode %s: %v", envelopes[i].Kind, err)
			return
		}
	}
	calls, n = 20_000*len(envelopes), len(envelopes)
	if b.smoke {
		calls /= 100
	}
	probe(layerWire, "wire.encode_ns", ns, calls, func(i int) {
		body, _ := envelopes[i%n].Encode()
		sunk += uint64(len(body))
	})
	probe(layerWire, "wire.decode_ns", ns, calls, func(i int) {
		env, _ := wire.DecodeEnvelope(bodies[i%n])
		sunk += uint64(env.Seq)
	})

	// sim/trace: reading a trace file back (and auditing it, as the
	// measured run's check does).
	b.ops(1)
	id := tr.begin(root, layerTrace, "trace.read", "")
	records2, read, err := b.traceRoundTrip(seed)
	tr.end(id)
	if err != nil {
		b.failf("probes: trace round trip: %v", err)
	} else {
		b.record("trace.read_ns_per_record", ratio(float64(read), float64(records2)))
	}

	// live: opening the TCP transport's listeners.
	if b.tcp {
		probe(layerLive, "live.tcp_setup_ms", ms, 5, func(int) {
			t, err := live.NewTCPTransport(liveN)
			if err != nil {
				b.failf("probes: %v", err)
				return
			}
			t.Close()
		})
	}
}

// sampleEnvelopes steps the live leg's protocols by hand — every process
// once, then every process again on what the first step sent it — and
// returns the first envelope of each payload kind, sorted by kind. All
// registered kinds must turn up.
func sampleEnvelopes(n int, seed uint64) ([]wire.Envelope, error) {
	byKind := make(map[string]wire.Envelope)
	for _, c := range append(append([]liveCase(nil), liveStepCases...), liveFrameCases...) {
		p, ok := gossip.ByName(c.protocol)
		if !ok {
			return nil, fmt.Errorf("unknown protocol %q", c.protocol)
		}
		envs := make([]sim.Env, n)
		for i := range envs {
			envs[i] = sim.Env{ID: sim.ProcID(i), N: n, RNG: sim.ProcRNG(seed, sim.ProcID(i))}
		}
		procs := p.New(envs)
		inbox := make([][]sim.Message, n)
		for now := sim.Step(1); now <= 2; now++ {
			next := make([][]sim.Message, n)
			for i, proc := range procs {
				out := sim.NewOutbox(sim.ProcID(i), n)
				proc.Step(now, inbox[i], &out)
				if c, ok := proc.(sim.Committer); ok {
					c.Commit(now)
				}
				for seq, m := range out.Drain() {
					next[m.To] = append(next[m.To], m)
					kind := m.Payload.Kind()
					if _, seen := byKind[kind]; !seen {
						byKind[kind] = wire.Envelope{From: m.From, To: m.To, SentAt: now, ArriveAt: now + 1,
							Seq: int64(seq + 1), Kind: kind, Payload: m.Payload}
					}
				}
			}
			inbox = next
		}
	}
	kinds := wire.RegisteredKinds()
	sort.Strings(kinds)
	var out []wire.Envelope
	for _, k := range kinds {
		env, ok := byKind[k]
		if !ok {
			return nil, fmt.Errorf("no live protocol sent a %q payload in its first two steps", k)
		}
		out = append(out, env)
	}
	return out, nil
}
