// Package gossip implements the all-to-all gossip protocols evaluated in
// "The Universal Gossip Fighter" (IPPS 2022), plus the baselines its text
// refers to:
//
//   - PushPull — the pull-request/push protocol of Section V-A2(a),
//     inspired by Karp et al. [19];
//   - EARS — Epidemic Asynchronous Rumor Spreading from Georgiou et
//     al. [14], Section V-A2(b);
//   - SEARS — Spamming EARS, Section V-A2(c);
//   - RoundRobin — the deliberately inefficient deterministic protocol of
//     Example 1 (Θ(N²) messages, Θ(N) time);
//   - Broadcast — the trivial one-round protocol from the introduction
//     (N² messages, constant time);
//   - BudgetCapped — an EARS variant with a global message budget N²/α,
//     used by the Theorem 1 trade-off experiment;
//   - Adaptive — a Push-Pull variant that tries to adapt to the adversary,
//     used by the randomization-prevents-adaptation ablation.
//
// All protocols satisfy the all-to-all contract of Section II-B: rumor
// gathering when no adversary interferes, and quiescence via the
// falling-asleep semantics of Definition IV.2.
//
// # Shared knowledge arena
//
// EARS and SEARS messages carry the sender's full knowledge — its gossip
// set G(ρ) and its who-knows-what set I(ρ), the latter quadratic in N.
// Copying those sets into every message would dominate the simulation, so
// the protocols here exploit two structural facts: knowledge sets only
// grow, and every transmitted view of a process's knowledge is a prefix of
// that process's append-only learning log. A message therefore carries
// only a version vector (one integer per process) plus a log-prefix
// length; receivers resolve the referenced entries through a run-wide
// shared arena of immutable log prefixes. This is an exact representation
// of (G, I), not an approximation.
//
// Arena appends follow the engine's phase discipline (sim.Committer):
// processes stage appends during Step and publish them in Commit, which
// the engine serializes — that is what keeps parallel stepping safe.
package gossip

import (
	"math"
	"math/bits"

	"github.com/ugf-sim/ugf/internal/sim"
)

// bitset is a fixed-capacity set of small non-negative integers.
type bitset struct {
	words []uint64
	n     int // population count
}

func newBitset(capacity int) bitset {
	return bitset{words: make([]uint64, (capacity+63)/64)}
}

// add inserts i and reports whether it was newly added.
func (b *bitset) add(i int) bool {
	w, m := i>>6, uint64(1)<<uint(i&63)
	if b.words[w]&m != 0 {
		return false
	}
	b.words[w] |= m
	b.n++
	return true
}

// has reports whether i is in the set.
func (b *bitset) has(i int) bool {
	return b.words[i>>6]&(uint64(1)<<uint(i&63)) != 0
}

// count returns the number of elements.
func (b *bitset) count() int { return b.n }

// reset empties the set.
func (b *bitset) reset() {
	clear(b.words)
	b.n = 0
}

// popcount recomputes the population count from the words (used by tests
// to validate the incremental counter).
func (b *bitset) popcount() int {
	total := 0
	for _, w := range b.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// arena is the run-wide table of append-only learning logs. logs[p] lists
// the gossips process p has learned, in learning order, starting with its
// own gossip. Prefixes of a log are immutable; appends happen only inside
// sim.Committer.Commit, so any prefix length a process received in a
// message is safe to read during (possibly parallel) Step phases.
//
// total is Σ len(logs[p]), the number of published log entries. It follows
// the same phase discipline as the logs: written only by publish (Commit),
// read during Step.
type arena struct {
	logs  [][]sim.ProcID
	total int64
}

func newArena(n int) *arena {
	a := &arena{logs: make([][]sim.ProcID, n), total: int64(n)}
	for p := 0; p < n; p++ {
		log := make([]sim.ProcID, 1, 8)
		log[0] = sim.ProcID(p)
		a.logs[p] = log
	}
	return a
}

// publish appends staged entries to p's log. Call only from Commit.
func (a *arena) publish(p sim.ProcID, staged []sim.ProcID) {
	if len(staged) > 0 {
		a.logs[p] = append(a.logs[p], staged...)
		a.total += int64(len(staged))
	}
}

// prefix returns the immutable first length entries of p's log.
func (a *arena) prefix(p sim.ProcID, length int32) []sim.ProcID {
	return a.logs[p][:length]
}

// len returns the published length of p's log.
func (a *arena) len(p sim.ProcID) int32 { return int32(len(a.logs[p])) }

// inactivityWindow computes the EARS completion window
// ⌈scale · N/(N−F) · ln N⌉ local steps, at least 1.
func inactivityWindow(n, f int, scale float64) int {
	if scale <= 0 {
		scale = 1
	}
	w := scale * float64(n) / float64(n-f) * math.Log(float64(n))
	iw := int(math.Ceil(w))
	if iw < 1 {
		iw = 1
	}
	return iw
}

// Payload types shared by the protocols.

// batchPayload carries "all the gossips the sender knew when it sent":
// the first GLen entries of the sender's arena log.
type batchPayload struct {
	GLen int32
}

func (batchPayload) Kind() string { return "gossips" }

// batchBox caches the boxed interface value of the most recently sent
// batchPayload, keyed by its GLen. Protocols send the same knowledge
// length many times in a row — every pull answer and push of a quiet
// stretch — and handing the engine one interface value instead of
// re-boxing per send is what lets the Outbox dedup fan-outs and keeps the
// steady-state hot path allocation-free. Payload *contents* are untouched,
// so outcomes are bit-identical.
type batchBox struct {
	pl   sim.Payload
	gLen int32
}

// payload returns the boxed batchPayload for knowledge length gLen,
// reusing the previous box when the length is unchanged.
func (b *batchBox) payload(gLen int32) sim.Payload {
	if b.pl == nil || b.gLen != gLen {
		b.pl = batchPayload{GLen: gLen}
		b.gLen = gLen
	}
	return b.pl
}

// pullPayload is a Push-Pull pull request.
type pullPayload struct{}

func (pullPayload) Kind() string { return "pull" }

// singlePayload carries exactly one gossip (RoundRobin, Broadcast).
type singlePayload struct {
	G sim.ProcID
}

func (singlePayload) Kind() string { return "gossip" }

// earsPayload is an exact encoding of (G(sender), I(sender)) at send time:
// GLen is the sender's log length (its gossip set), and Ver[b] says "the
// sender has seen the first Ver[b] entries of b's log" — the pair set
// I(sender) under the prefix property described in the package comment.
// Ver is an immutable snapshot shared by every send of one local step.
// Sum is ΣVer, derived state that never travels: receivers order one
// sender's snapshots by it (earsProc.merge). Build values only through
// newEarsPayload so the two cannot disagree.
//
// Messages carry *earsPayload: the boxes and their Ver snapshots are
// carved from per-process append-only chunks (earsProc.payload), so
// taking a new snapshot costs two heap allocations per chunk instead of
// two per snapshot. Receivers must treat both as immutable.
type earsPayload struct {
	GLen int32
	Ver  []int32
	Sum  int64
}

// newEarsPayload is the one constructor of earsPayload values — used by
// the sender (earsProc.payload), the wire decoder and the tests. It takes
// ownership of ver.
func newEarsPayload(gLen int32, ver []int32) earsPayload {
	var sum int64
	for _, v := range ver {
		sum += int64(v)
	}
	return earsPayload{GLen: gLen, Ver: ver, Sum: sum}
}

func (earsPayload) Kind() string { return "ears" }
