// Package xrand provides the deterministic random-number machinery used by
// the UGF simulator.
//
// Every run of the simulator must be a pure function of (configuration,
// seed): results must not depend on goroutine scheduling, map iteration
// order, or the Go version's math/rand internals. To that end this package
// implements a small, self-contained generator (xoshiro256** seeded through
// SplitMix64) together with
//
//   - cheap stream derivation (Derive, Split) so that every process in a
//     simulation owns an independent generator — the property that makes
//     deterministic parallel stepping possible, and
//   - the samplers the paper needs, most notably the ζ(2) distribution
//     P(K=k) = 6/(π²k²) used by Algorithm 1 to pick the exponents k and l
//     (see zeta.go).
//
// The generator is intentionally not cryptographic; it is a simulation
// PRNG chosen for speed, statistical quality, and reproducibility.
package xrand

import "math"

// RNG is a deterministic pseudo-random generator (xoshiro256**).
//
// The zero value is not usable; construct with New or Derive. RNG is not
// safe for concurrent use — hand each goroutine its own stream instead
// (that is the whole point of Split/Derive).
type RNG struct {
	s [4]uint64
}

// splitMix64 advances *x by the SplitMix64 sequence and returns the next
// output. It is used for seeding and for stream derivation because every
// distinct input produces a well-scrambled, distinct output.
func splitMix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed. Distinct seeds yield
// independent-looking streams; the same seed always yields the same stream.
func New(seed uint64) *RNG {
	r := new(RNG)
	r.Seed(seed)
	return r
}

// Seed reinitializes r in place to the exact stream New(seed) produces. It
// is the allocation-free form of New, for callers that batch-allocate
// generator arrays — a simulation with a million processes seeds a million
// generators, and one []RNG backing beats a million boxed RNGs.
func (r *RNG) Seed(seed uint64) {
	x := seed
	for i := range r.s {
		r.s[i] = splitMix64(&x)
	}
	// xoshiro256** requires a nonzero state. SplitMix64 cannot emit four
	// zeros in a row, but keep the guard so the invariant is local.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// Derive deterministically combines a base seed with a path of identifiers
// (for example run index, then process index) into a new seed. It is the
// pure-function counterpart of Split: calling Derive with the same
// arguments always yields the same seed, regardless of any generator state.
func Derive(seed uint64, path ...uint64) uint64 {
	x := seed
	out := splitMix64(&x)
	for _, p := range path {
		x = out ^ (p + 0x9e3779b97f4a7c15)
		out = splitMix64(&x)
	}
	return out
}

// Split returns a fresh generator whose stream is statistically independent
// of the parent's future output. The parent advances by one step, so
// repeated Splits yield distinct children.
func (r *RNG) Split() *RNG {
	return New(r.Uint64())
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.boundedUint64(uint64(n)))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("xrand: Int63n with non-positive n")
	}
	return int64(r.boundedUint64(uint64(n)))
}

// boundedUint64 returns a uniform value in [0, n) using Lemire's
// multiply-shift rejection method (no modulo bias).
func (r *RNG) boundedUint64(n uint64) uint64 {
	// Fast path: multiply-high, rejecting the biased low fringe.
	for {
		v := r.Uint64()
		hi, lo := mul64(v, n)
		if lo >= n || lo >= -n%n {
			return hi
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	w1 := t&mask + aLo*bHi
	hi = aHi*bHi + t>>32 + w1>>32
	lo = a * b
	return hi, lo
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap, exactly as
// math/rand.Shuffle does.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// SampleInts returns k distinct uniform values from [0, n), in random
// order. It panics if k > n or k < 0.
func (r *RNG) SampleInts(n, k int) []int {
	if k < 0 || k > n {
		panic("xrand: SampleInts with k out of range")
	}
	if k == 0 {
		return nil
	}
	// Partial Fisher–Yates over an index table. O(n) memory, O(n + k) time;
	// n is the process count, so this is always small.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
		out[i] = idx[i]
	}
	return out
}

// SampleIntsInto is SampleInts without the allocations: it fills out with
// len(out) distinct uniform values from [0, len(table)), making the same
// Intn draws and producing the same values in the same order as
// SampleInts(len(table), len(out)). table is caller-owned scratch that
// must hold the identity permutation (table[i] == i) on entry; the swaps
// are undone before returning, so it holds it again on exit and one table
// serves any number of calls. It panics if len(out) > len(table).
func (r *RNG) SampleIntsInto(out, table []int) {
	n, k := len(table), len(out)
	if k > n {
		panic("xrand: SampleIntsInto with k out of range")
	}
	// Partial Fisher–Yates, remembering each swap partner in out…
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		table[i], table[j] = table[j], table[i]
		out[i] = j
	}
	// …then undone newest swap first, trading each partner for the value
	// the swap had put in place.
	for i := k - 1; i >= 0; i-- {
		j := out[i]
		out[i] = table[i]
		table[i], table[j] = table[j], table[i]
	}
}

// IntnExcept returns a uniform int in [0, n) \ {except}. It panics when the
// domain is empty (n < 2, or n == 1 with except == 0).
func (r *RNG) IntnExcept(n, except int) int {
	if except < 0 || except >= n {
		return r.Intn(n)
	}
	if n < 2 {
		panic("xrand: IntnExcept with empty domain")
	}
	v := r.Intn(n - 1)
	if v >= except {
		v++
	}
	return v
}

// NormFloat64 returns a standard normal variate (polar Marsaglia method).
// Used only by the statistics helpers (bootstrap smoothing), not by the
// simulation itself.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}
