package simtest

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"reflect"
	"strconv"
	"testing"

	"github.com/ugf-sim/ugf/internal/sim"
	"github.com/ugf-sim/ugf/internal/sim/oracle"
	"github.com/ugf-sim/ugf/internal/sim/trace"
	"github.com/ugf-sim/ugf/internal/simtest/check"
)

// genSeedBase anchors the generated-case seeds. Every property sweeps
// the same seed range, so one failing case can be cross-examined under
// every property by its seed.
const genSeedBase uint64 = 0x516f0000

// configCount is how many generated configurations each property sweeps:
// trimmed under -short to keep tier-1 time flat, 224 by default (the
// acceptance bar is 200+), and overridable via UGF_PROPERTY_CONFIGS —
// scripts/verify.sh raises it, and a CI soak can raise it much further.
func configCount(t *testing.T) int {
	if s := os.Getenv("UGF_PROPERTY_CONFIGS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("bad UGF_PROPERTY_CONFIGS=%q: %v", s, err)
		}
		return n
	}
	if testing.Short() {
		return 48
	}
	return 224
}

// TestPropertyEngineMatchesOracle is the differential property: the
// production engine and the naive reference engine in sim/oracle agree,
// bit for bit up to Normalize, on every generated configuration the
// oracle can afford (big-N cases beyond its O(N)-per-step budget set
// SkipOracle and are carried by the other three properties).
func TestPropertyEngineMatchesOracle(t *testing.T) {
	for i := 0; i < configCount(t); i++ {
		c := Gen(genSeedBase + uint64(i))
		if c.SkipOracle {
			continue
		}
		got, err := sim.Run(c.Cfg)
		if err != nil {
			t.Fatalf("%s: engine: %v", c.Name, err)
		}
		want, err := oracle.Run(c.Cfg)
		if err != nil {
			t.Fatalf("%s: oracle: %v", c.Name, err)
		}
		if diffs := DiffOutcomes(got, want); len(diffs) != 0 {
			t.Errorf("%s: engine and oracle diverge:", c.Name)
			for _, d := range diffs {
				t.Errorf("  %s", d)
			}
		}
	}
}

// TestPropertyParallelMatchesSerial is the metamorphic workers property:
// Workers is a speed knob, never a semantics knob, so serial and
// 4-worker runs of the same configuration produce byte-identical
// Outcomes — including the scheduler's heap counters, which Normalize
// would forgive but this property does not.
func TestPropertyParallelMatchesSerial(t *testing.T) {
	for i := 0; i < configCount(t); i++ {
		c := Gen(genSeedBase + uint64(i))
		serial, err := sim.Run(c.Cfg)
		if err != nil {
			t.Fatalf("%s: serial: %v", c.Name, err)
		}
		pcfg := c.Cfg
		pcfg.Workers = 4
		parallel, err := sim.Run(pcfg)
		if err != nil {
			t.Fatalf("%s: workers=4: %v", c.Name, err)
		}
		if !reflect.DeepEqual(serial.StripWall(), parallel.StripWall()) {
			t.Errorf("%s: serial and workers=4 outcomes differ:", c.Name)
			for _, d := range DiffOutcomes(serial, parallel) {
				t.Errorf("  %s", d)
			}
		}
	}
}

// TestPropertyShardsMatchSerial is the sharded-commit twin of the workers
// property: the shard count partitions each due set into different
// contiguous process ranges, each with its own payload table, calendar
// lanes, and counter deltas, and the merge must erase every trace of the
// partition. Serial, 2-shard, and 8-shard runs of the same configuration
// must produce byte-identical Outcomes — Stats included, down to the
// scheduler's heap counters. scripts/verify.sh and CI additionally run
// this property under -race on a reduced config band, which is what
// actually exercises the lanes' no-shared-mutable-state claim.
func TestPropertyShardsMatchSerial(t *testing.T) {
	for i := 0; i < configCount(t); i++ {
		c := Gen(genSeedBase + uint64(i))
		serial, err := sim.Run(c.Cfg)
		if err != nil {
			t.Fatalf("%s: serial: %v", c.Name, err)
		}
		for _, shards := range []int{2, 8} {
			scfg := c.Cfg
			scfg.Workers = shards
			sharded, err := sim.Run(scfg)
			if err != nil {
				t.Fatalf("%s: shards=%d: %v", c.Name, shards, err)
			}
			if !reflect.DeepEqual(serial.StripWall(), sharded.StripWall()) {
				t.Errorf("%s: serial and shards=%d outcomes differ:", c.Name, shards)
				for _, d := range DiffOutcomes(serial, sharded) {
					t.Errorf("  %s", d)
				}
			}
		}
	}
}

// TestPropertySameSeedDeterminism: a run is a pure function of its
// Config — rerunning the identical configuration reproduces the Outcome
// exactly (up to wall times).
func TestPropertySameSeedDeterminism(t *testing.T) {
	for i := 0; i < configCount(t); i++ {
		c := Gen(genSeedBase + uint64(i))
		first, err := sim.Run(c.Cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		second, err := sim.Run(c.Cfg)
		if err != nil {
			t.Fatalf("%s: rerun: %v", c.Name, err)
		}
		if !reflect.DeepEqual(first.StripWall(), second.StripWall()) {
			t.Errorf("%s: same config, different outcomes:", c.Name)
			for _, d := range DiffOutcomes(first, second) {
				t.Errorf("  %s", d)
			}
		}
	}
}

// TestPropertyTraceInvariants validates the full event stream of every
// generated run twice: online, with a check.Sink attached directly to
// the engine, and offline, by round-tripping the same stream through the
// JSONL encoder and check.Replay. Both must report zero violations and
// reconcile exactly with the run's Outcome.Stats. Big-N cases keep the
// online audit but skip the JSONL round-trip — encoding a million-event
// stream tests the encoder's throughput, not the engine, and the encoder
// is already covered by the hundreds of small cases.
func TestPropertyTraceInvariants(t *testing.T) {
	for i := 0; i < configCount(t); i++ {
		c := Gen(genSeedBase + uint64(i))
		live := check.New()
		if c.Cfg.Topology != nil {
			live.UseTopology(c.Cfg.Topology, c.Cfg.N)
		}
		var buf bytes.Buffer
		cfg := c.Cfg
		var jsonl *trace.JSONL
		if c.Big {
			cfg.Trace = live
		} else {
			jsonl = trace.NewJSONL(&buf)
			cfg.Trace = trace.Multi(live, jsonl)
		}
		o, err := sim.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if vs := live.Finish(o); len(vs) != 0 {
			t.Errorf("%s: online trace validation failed:", c.Name)
			for _, v := range vs {
				t.Errorf("  %s", v)
			}
			continue
		}
		if jsonl == nil {
			if live.Count(sim.TraceEnd) != 1 {
				t.Errorf("%s: want exactly one end marker, got live=%d",
					c.Name, live.Count(sim.TraceEnd))
			}
			continue
		}
		if err := jsonl.Flush(); err != nil {
			t.Fatalf("%s: flush: %v", c.Name, err)
		}
		recs, err := trace.Read(&buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", c.Name, err)
		}
		replayed := check.New()
		if c.Cfg.Topology != nil {
			replayed.UseTopology(c.Cfg.Topology, c.Cfg.N)
		}
		if err := check.ReplayInto(replayed, recs); err != nil {
			t.Fatalf("%s: replay: %v", c.Name, err)
		}
		if vs := replayed.Finish(o); len(vs) != 0 {
			t.Errorf("%s: JSONL replay validation failed:", c.Name)
			for _, v := range vs {
				t.Errorf("  %s", v)
			}
		}
		if live.Count(sim.TraceEnd) != 1 || replayed.Count(sim.TraceEnd) != 1 {
			t.Errorf("%s: want exactly one end marker, got live=%d replay=%d",
				c.Name, live.Count(sim.TraceEnd), replayed.Count(sim.TraceEnd))
		}
	}
}

// TestPropertyTracedShardsMatchSerial is the traced twin of the shards
// property: shard lanes buffer their processes' step, send and drop events
// and the merge hands them to the sink in process order, so the JSONL
// stream of a 2-lane or 8-lane run is byte for byte the stream of the
// Workers = 0 run — not merely an equivalent one — and each of the three
// passes the Section II-A validator against its own run's Outcome. Big-N
// cases, where nearly every step forks, compare SHA-256 digests of the
// stream instead of holding three copies of it. scripts/verify.sh and CI
// run this under -race too: it is the only property in which lanes append
// trace events concurrently.
func TestPropertyTracedShardsMatchSerial(t *testing.T) {
	for i := 0; i < configCount(t); i++ {
		c := Gen(genSeedBase + uint64(i))
		serial := tracedStream(t, c, 0)
		for _, workers := range []int{2, 8} {
			if got := tracedStream(t, c, workers); !bytes.Equal(got, serial) {
				t.Errorf("%s: traced workers=%d stream differs from the serial stream%s",
					c.Name, workers, firstLineDiff(c, serial, got))
			}
		}
	}
}

// tracedStream runs c with the given worker count and a JSONL sink, audits
// the stream — online for every case, and again from the decoded JSONL for
// the small ones (check.Replay + Finish) — and returns the bytes the sink
// wrote, or their SHA-256 digest for a Big case.
func tracedStream(t *testing.T, c Case, workers int) []byte {
	t.Helper()
	var buf bytes.Buffer
	digest := sha256.New()
	var w io.Writer = &buf
	if c.Big {
		w = digest
	}
	audit := func() *check.Sink {
		s := check.New()
		if c.Cfg.Topology != nil {
			s.UseTopology(c.Cfg.Topology, c.Cfg.N)
		}
		return s
	}
	live, jsonl := audit(), trace.NewJSONL(w)
	cfg := c.Cfg
	cfg.Workers = workers
	cfg.Trace = trace.Multi(live, jsonl)
	o, err := sim.Run(cfg)
	if err != nil {
		t.Fatalf("%s: workers=%d: %v", c.Name, workers, err)
	}
	if err := jsonl.Flush(); err != nil {
		t.Fatalf("%s: workers=%d: flush: %v", c.Name, workers, err)
	}
	for _, v := range live.Finish(o) {
		t.Errorf("%s: workers=%d: online validation: %s", c.Name, workers, v)
	}
	if c.Big {
		return digest.Sum(nil)
	}
	stream := bytes.Clone(buf.Bytes())
	recs, err := trace.Read(&buf)
	if err != nil {
		t.Fatalf("%s: workers=%d: decode: %v", c.Name, workers, err)
	}
	replayed := audit()
	if err := check.ReplayInto(replayed, recs); err != nil {
		t.Fatalf("%s: workers=%d: replay: %v", c.Name, workers, err)
	}
	for _, v := range replayed.Finish(o) {
		t.Errorf("%s: workers=%d: replay validation: %s", c.Name, workers, v)
	}
	return stream
}

// firstLineDiff names the first JSONL line at which two streams part.
func firstLineDiff(c Case, a, b []byte) string {
	if c.Big {
		return " (digests compared)"
	}
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(la) && i < len(lb); i++ {
		if !bytes.Equal(la[i], lb[i]) {
			return fmt.Sprintf(" at line %d:\n  serial:  %s\n  sharded: %s", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf(": %d vs %d lines", len(la), len(lb))
}
