package ugf_test

// Extended golden matrix: whole-outcome hashes for the configuration
// corners the generated property suite (internal/simtest) surfaced as
// untouched by the original 60-case table — the omission and ζ(2)-sampled
// UGF adversaries, crash-heavy budgets (F = N/2), the protocols outside
// the paper's headline five. Where golden_test.go pins six summary fields
// per case, each row here pins ugf.OutcomeHash: an FNV-64a hash of the
// run's entire deterministic outcome (o.StripWall(), JSON-encoded), so an
// engine change that shifts any outcome field or Stats counter by one
// lands here even if M(O) and T_end happen to survive. TestOutcomeJSONShape
// pins that encoding for one tiny run: when a change to Outcome's fields
// moves every hash, its one-line diff says why.
//
// Seeds derive from the case index like the base table (offset 5000), so
// the matrix is append-only. Regenerate with:
//
//	UGF_GOLDEN_PRINT=1 go test -run TestGoldenExtPrint -v .

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"github.com/ugf-sim/ugf"
)

type goldenExtCase struct {
	proto string
	adv   string
	n, f  int
	// PR 7 fault-model columns; zero values leave pre-fault cases
	// byte-identical (Outcome's fault fields are omitempty).
	faults      string // ParseFaultPlan spec, "" for none
	stallWindow int64  // Config.StallWindow (events), 0 for off
	// PR 9 topology columns; zero values leave pre-topology cases
	// byte-identical (complete graph, no event cutoff).
	topology  string // ParseTopology spec, "" for complete
	maxEvents int64  // Config.MaxEvents, 0 for unbounded
}

// note renders the case's fault, stall and topology columns for the
// printed table.
func (c goldenExtCase) note() string {
	note := ""
	if c.faults != "" {
		note = " faults=" + c.faults
	}
	if c.stallWindow != 0 {
		note += fmt.Sprintf(" stallWindow=%d", c.stallWindow)
	}
	if c.topology != "" {
		note += fmt.Sprintf(" topology=%s maxEvents=%d", c.topology, c.maxEvents)
	}
	return note
}

// goldenExtMatrix crosses the under-covered protocols with the
// under-covered adversaries at a crash-heavy budget. Omission runs twice
// per protocol, under two seeds: the rows once differed in an interval
// series the outcome no longer has, and seeds follow the row index, so
// the rows stay. Append only.
func goldenExtMatrix() []goldenExtCase {
	var cases []goldenExtCase
	for _, size := range []struct{ n, f int }{{16, 8}, {48, 24}} {
		for _, proto := range []string{"push", "pull", "doubling", "adaptive", "budget-capped"} {
			for _, adv := range []string{"omission", "omission", "ugf-sampled", "ugf"} {
				cases = append(cases, goldenExtCase{proto: proto, adv: adv, n: size.n, f: size.f})
			}
		}
	}
	// PR 5 appendix: the interned-payload and pooled-path corners of the
	// zero-alloc engine rewrite, at N ∈ {64, 1000}. SEARS fans one shared
	// payload out to ⌈√N·ln N⌉ recipients per step (the Outbox dedup path),
	// broadcast fans a single payload to N−1 recipients in one step (one
	// intern slot, maximal fan-out), EARS reuses one boxed payload across
	// quiet steps, push-pull interleaves zero-size pull requests with batch
	// payloads (staging-table alternation), and round-robin under omission
	// exercises the dropped-send slot reclamation. The outcomes were first
	// pinned on the engine before that rewrite; the hashes have moved since
	// only when Outcome lost two keys, never because a run changed.
	cases = append(cases,
		goldenExtCase{proto: "sears", adv: "none", n: 64, f: 21},
		goldenExtCase{proto: "sears", adv: "ugf", n: 64, f: 21},
		goldenExtCase{proto: "ears", adv: "none", n: 64, f: 21},
		goldenExtCase{proto: "ears", adv: "omission", n: 64, f: 21},
		goldenExtCase{proto: "push-pull", adv: "ugf-sampled", n: 64, f: 21},
		goldenExtCase{proto: "broadcast", adv: "none", n: 64, f: 21},
		goldenExtCase{proto: "round-robin", adv: "omission", n: 64, f: 21},
		goldenExtCase{proto: "push-pull", adv: "none", n: 1000, f: 250},
		goldenExtCase{proto: "sears", adv: "none", n: 1000, f: 250},
		goldenExtCase{proto: "broadcast", adv: "omission", n: 1000, f: 250},
	)
	// PR 7 appendix: the fault-model corners — lossy links (drop/dup/
	// corrupt rolls in the delivery path), the partition adversary's
	// class-blocked sends, and the crash-recovery lifecycle (amnesiac and
	// retained restarts, send-residue discard). Every case sets a stall
	// window so the hashes also pin the stall detector's no-false-positive
	// behaviour on runs that do make progress.
	cases = append(cases,
		goldenExtCase{proto: "push-pull", adv: "none", n: 32, f: 10,
			faults: "drop=0.2,seed=11", stallWindow: 4096},
		goldenExtCase{proto: "push", adv: "none", n: 32, f: 10,
			faults: "dup=0.25,seed=12", stallWindow: 4096},
		goldenExtCase{proto: "ears", adv: "none", n: 32, f: 10,
			faults: "corrupt=0.2,seed=13", stallWindow: 4096},
		goldenExtCase{proto: "sears", adv: "ugf", n: 32, f: 10,
			faults: "drop=0.1,dup=0.1,corrupt=0.1,seed=14", stallWindow: 4096},
		goldenExtCase{proto: "push-pull", adv: "partition", n: 32, f: 10,
			stallWindow: 8192},
		goldenExtCase{proto: "round-robin", adv: "partition", n: 24, f: 8,
			faults: "drop=0.05,seed=15", stallWindow: 8192},
		goldenExtCase{proto: "push-pull", adv: "crash-recovery", n: 32, f: 10,
			stallWindow: 4096},
		goldenExtCase{proto: "round-robin", adv: "crash-recovery", n: 24, f: 8,
			faults: "dup=0.1,seed=16", stallWindow: 4096},
	)
	// PR 9 appendix: the communication-graph corners — sparse topologies
	// (ring, k-regular, seeded expander, bounded-degree radio) under the
	// budgeted rewire adversary, the partition adversary, and lossy links.
	// Every case sets both a stall window and an event cutoff: sparse
	// graphs can make gathering impossible while neighbor traffic keeps
	// the stall signature moving, so MaxEvents is the hard bound the
	// hashes pin (HorizonHit paths included).
	cases = append(cases,
		goldenExtCase{proto: "push-pull", adv: "rewire", n: 32, f: 10,
			topology: "ring", stallWindow: 4096, maxEvents: 20000},
		goldenExtCase{proto: "ears", adv: "rewire", n: 32, f: 10,
			topology: "k-regular,k=4", stallWindow: 4096, maxEvents: 20000},
		goldenExtCase{proto: "push", adv: "partition", n: 24, f: 8,
			topology: "ring", stallWindow: 4096, maxEvents: 16000},
		goldenExtCase{proto: "round-robin", adv: "rewire", n: 24, f: 8,
			topology: "expander,k=4,seed=7", stallWindow: 4096, maxEvents: 16000},
		goldenExtCase{proto: "sears", adv: "none", n: 32, f: 10,
			topology: "radio,k=3,seed=9", stallWindow: 4096, maxEvents: 20000},
		goldenExtCase{proto: "push-pull", adv: "partition", n: 32, f: 10,
			faults: "drop=0.1,seed=17", topology: "k-regular,k=6", stallWindow: 8192, maxEvents: 24000},
		goldenExtCase{proto: "ears", adv: "rewire", n: 24, f: 8,
			topology: "radio,k=2,seed=21", stallWindow: 4096, maxEvents: 16000},
		goldenExtCase{proto: "push-pull", adv: "rewire", n: 48, f: 16,
			topology: "expander,k=6,seed=5", stallWindow: 8192, maxEvents: 32000},
	)
	return cases
}

func goldenExtConfig(t testing.TB, c goldenExtCase, idx, workers int) ugf.Config {
	t.Helper()
	proto, ok := ugf.ProtocolByName(c.proto)
	if !ok {
		t.Fatalf("unknown protocol %q", c.proto)
	}
	adv, ok := ugf.AdversaryByName(c.adv)
	if !ok {
		t.Fatalf("unknown adversary %q", c.adv)
	}
	fp, err := ugf.ParseFaultPlan(c.faults)
	if err != nil {
		t.Fatalf("fault spec %q: %v", c.faults, err)
	}
	topo, err := ugf.ParseTopology(c.topology)
	if err != nil {
		t.Fatalf("topology spec %q: %v", c.topology, err)
	}
	return ugf.Config{
		N: c.n, F: c.f, Protocol: proto, Adversary: adv,
		Seed:        uint64(5000 + idx),
		Workers:     workers,
		Faults:      fp,
		StallWindow: c.stallWindow,
		Topology:    topo,
		MaxEvents:   c.maxEvents,
	}
}

func TestGoldenExtOutcomes(t *testing.T) {
	cases := goldenExtMatrix()
	if len(cases) != len(goldenExtHashes) {
		t.Fatalf("matrix has %d cases but table has %d hashes — regenerate with UGF_GOLDEN_PRINT=1",
			len(cases), len(goldenExtHashes))
	}
	for _, workers := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			for i, c := range cases {
				o, err := ugf.Run(goldenExtConfig(t, c, i, workers))
				if err != nil {
					t.Fatalf("case %d (%s/%s N=%d): %v", i, c.proto, c.adv, c.n, err)
				}
				if got := ugf.OutcomeHash(o); got != goldenExtHashes[i] {
					t.Errorf("case %d (%s/%s N=%d F=%d seed=%d): outcome hash %s, want %s",
						i, c.proto, c.adv, c.n, c.f, 5000+i, got, goldenExtHashes[i])
				}
			}
		})
	}
}

// TestOutcomeJSONShape pins the encoding every outcome hash is taken
// over, for one tiny run: a change to Outcome's fields shows here as a
// readable diff of one line before it shows as moved hashes.
func TestOutcomeJSONShape(t *testing.T) {
	o, err := ugf.Run(ugf.Config{N: 8, Protocol: ugf.PushPull{}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(o.StripWall())
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"Protocol":"push-pull","Adversary":"none","Strategy":"","N":8,"F":0,"Seed":1,"TEnd":6,"Quiescence":7,"Messages":87,"Time":3,"DeltaMax":1,"DelayMax":1,"Crashed":0,"Gathered":true,"HorizonHit":false,"Cancelled":false,"Stats":{"Events":133,"ActiveSteps":7,"LocalSteps":46,"Sends":87,"Deliveries":87,"DroppedCrashed":0,"OmittedSends":0,"HeapPushes":13,"HeapPops":13,"MaxInFlight":24,"MaxPending":24,"Sleeps":8,"Wakes":0,"Crashes":0,"DeltaRewrites":0,"DelayRewrites":0,"OmitRewrites":0,"MessagesByKind":[{"Kind":"gossips","Count":58},{"Kind":"pull","Count":29}],"Wall":{"Init":0,"Run":0,"Finalize":0}}}`
	if string(js) != want {
		t.Errorf("outcome encoding\n got %s\nwant %s", js, want)
	}
}

// TestGoldenExtPrint regenerates the hash table; see the file comment.
func TestGoldenExtPrint(t *testing.T) {
	if os.Getenv("UGF_GOLDEN_PRINT") == "" {
		t.Skip("set UGF_GOLDEN_PRINT=1 to regenerate the extended golden table")
	}
	for i, c := range goldenExtMatrix() {
		o, err := ugf.Run(goldenExtConfig(t, c, i, 1))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Printf("\t%q, // %d: %s/%s N=%d F=%d%s\n", ugf.OutcomeHash(o), i, c.proto, c.adv, c.n, c.f, c.note())
	}
}

// goldenExtHashes holds ugf.OutcomeHash per case, in goldenExtMatrix
// order.
var goldenExtHashes = []string{
	"8d3e54c1453958bc", // 0: push/omission N=16 F=8
	"ec1b48a93381b3ec", // 1: push/omission N=16 F=8
	"214ff2840f3f75f8", // 2: push/ugf-sampled N=16 F=8
	"5c6a8b847301b5cc", // 3: push/ugf N=16 F=8
	"9035132e718566dd", // 4: pull/omission N=16 F=8
	"3f007b9bd523cd9d", // 5: pull/omission N=16 F=8
	"4a98eff6af4d8a53", // 6: pull/ugf-sampled N=16 F=8
	"ce3a076075f38569", // 7: pull/ugf N=16 F=8
	"88a968a791a9f5fa", // 8: doubling/omission N=16 F=8
	"3bca9fcc5804ee7b", // 9: doubling/omission N=16 F=8
	"09767be017b106b8", // 10: doubling/ugf-sampled N=16 F=8
	"ecd9bc56ae0bbc91", // 11: doubling/ugf N=16 F=8
	"3aa17f34bc1e00b6", // 12: adaptive/omission N=16 F=8
	"62a6bf368e9bc7e6", // 13: adaptive/omission N=16 F=8
	"a651e53162a6576c", // 14: adaptive/ugf-sampled N=16 F=8
	"a9d63f45038092f4", // 15: adaptive/ugf N=16 F=8
	"a133090de83b4c73", // 16: budget-capped/omission N=16 F=8
	"89c2cab088a2fdf4", // 17: budget-capped/omission N=16 F=8
	"c7a812847373c6a1", // 18: budget-capped/ugf-sampled N=16 F=8
	"ff405a8c2d85cc3c", // 19: budget-capped/ugf N=16 F=8
	"0b9428d20a7295e2", // 20: push/omission N=48 F=24
	"f106a3bae9f7fba2", // 21: push/omission N=48 F=24
	"e62fe8704cef0551", // 22: push/ugf-sampled N=48 F=24
	"222846a2545e32ee", // 23: push/ugf N=48 F=24
	"0f284f6ef0f9d038", // 24: pull/omission N=48 F=24
	"adc6d84ee49aa0cb", // 25: pull/omission N=48 F=24
	"168af00e2c594a57", // 26: pull/ugf-sampled N=48 F=24
	"fcfe57f29f503fa2", // 27: pull/ugf N=48 F=24
	"c91c51f6c2d958bd", // 28: doubling/omission N=48 F=24
	"a8ff4784108b7d64", // 29: doubling/omission N=48 F=24
	"707e33779707d40b", // 30: doubling/ugf-sampled N=48 F=24
	"f501cb6716048609", // 31: doubling/ugf N=48 F=24
	"9870042de4abb7a8", // 32: adaptive/omission N=48 F=24
	"68f306b8271725d1", // 33: adaptive/omission N=48 F=24
	"14a787fbde5e92e7", // 34: adaptive/ugf-sampled N=48 F=24
	"4f7782a5e0f920f7", // 35: adaptive/ugf N=48 F=24
	"55c268f4a02a6eca", // 36: budget-capped/omission N=48 F=24
	"a5ac4d5fe5d48d33", // 37: budget-capped/omission N=48 F=24
	"0f4862617bd71c92", // 38: budget-capped/ugf-sampled N=48 F=24
	"434717c79cfbafc6", // 39: budget-capped/ugf N=48 F=24
	"9b269848e2fc62b8", // 40: sears/none N=64 F=21
	"3f03262b432052c0", // 41: sears/ugf N=64 F=21
	"de9bb8f3c5e42d51", // 42: ears/none N=64 F=21
	"1fda0369aae126f7", // 43: ears/omission N=64 F=21
	"beba35fd72c1fd5d", // 44: push-pull/ugf-sampled N=64 F=21
	"cec2389f8c1a63d7", // 45: broadcast/none N=64 F=21
	"a2ff7f4b1e0eb592", // 46: round-robin/omission N=64 F=21
	"33ed4a6107d133bd", // 47: push-pull/none N=1000 F=250
	"ccbe12b9fc60ce78", // 48: sears/none N=1000 F=250
	"71e55c5c9cfc3205", // 49: broadcast/omission N=1000 F=250
	"d25356879d9bd729", // 50: push-pull/none N=32 F=10 faults=drop=0.2,seed=11 stallWindow=4096
	"828dc022d74e23bf", // 51: push/none N=32 F=10 faults=dup=0.25,seed=12 stallWindow=4096
	"54d1d8df58e2aad6", // 52: ears/none N=32 F=10 faults=corrupt=0.2,seed=13 stallWindow=4096
	"1a6415d42e7316ba", // 53: sears/ugf N=32 F=10 faults=drop=0.1,dup=0.1,corrupt=0.1,seed=14 stallWindow=4096
	"61429d0e3cc37711", // 54: push-pull/partition N=32 F=10 stallWindow=8192
	"c96ac27b43476f56", // 55: round-robin/partition N=24 F=8 faults=drop=0.05,seed=15 stallWindow=8192
	"994adf67991cc524", // 56: push-pull/crash-recovery N=32 F=10 stallWindow=4096
	"98a59d4cb7a2717c", // 57: round-robin/crash-recovery N=24 F=8 faults=dup=0.1,seed=16 stallWindow=4096
	"1c9874e22e76be82", // 58: push-pull/rewire N=32 F=10 stallWindow=4096 topology=ring maxEvents=20000
	"fa5f9cff6c3a12db", // 59: ears/rewire N=32 F=10 stallWindow=4096 topology=k-regular,k=4 maxEvents=20000
	"fe59610c34a10d91", // 60: push/partition N=24 F=8 stallWindow=4096 topology=ring maxEvents=16000
	"67bd6ce364318774", // 61: round-robin/rewire N=24 F=8 stallWindow=4096 topology=expander,k=4,seed=7 maxEvents=16000
	"2288c28f31bd7332", // 62: sears/none N=32 F=10 stallWindow=4096 topology=radio,k=3,seed=9 maxEvents=20000
	"216e2597f64cfe2f", // 63: push-pull/partition N=32 F=10 faults=drop=0.1,seed=17 stallWindow=8192 topology=k-regular,k=6 maxEvents=24000
	"bb275ca322b0b5c0", // 64: ears/rewire N=24 F=8 stallWindow=4096 topology=radio,k=2,seed=21 maxEvents=16000
	"15810c4fadd0366a", // 65: push-pull/rewire N=48 F=16 stallWindow=8192 topology=expander,k=6,seed=5 maxEvents=32000
}
