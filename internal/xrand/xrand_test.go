package xrand

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("step %d: same seed diverged: %d != %d", i, av, bv)
		}
	}
}

func TestNewDistinctSeeds(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams from distinct seeds collide too often: %d/1000", same)
	}
}

func TestDeriveDeterministicAndPathSensitive(t *testing.T) {
	if Derive(7, 1, 2) != Derive(7, 1, 2) {
		t.Fatal("Derive is not deterministic")
	}
	if Derive(7, 1, 2) == Derive(7, 2, 1) {
		t.Fatal("Derive ignores path order")
	}
	if Derive(7, 1) == Derive(8, 1) {
		t.Fatal("Derive ignores base seed")
	}
	if Derive(7) == Derive(7, 0) {
		t.Fatal("Derive ignores path length")
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(99)
	child := parent.Split()
	// The child's stream must not be a shifted copy of the parent's.
	parentVals := make(map[uint64]bool)
	for i := 0; i < 200; i++ {
		parentVals[parent.Uint64()] = true
	}
	collisions := 0
	for i := 0; i < 200; i++ {
		if parentVals[child.Uint64()] {
			collisions++
		}
	}
	if collisions > 1 {
		t.Fatalf("child stream overlaps parent stream: %d collisions", collisions)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for n := 1; n <= 17; n++ {
		for i := 0; i < 200; i++ {
			if v := r.Intn(n); v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(5)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("value %d drawn %d times, want about %.0f", v, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestInt63nRange(t *testing.T) {
	r := New(11)
	for i := 0; i < 1000; i++ {
		if v := r.Int63n(1 << 40); v < 0 || v >= 1<<40 {
			t.Fatalf("Int63n out of range: %d", v)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := New(9)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(13)
	const draws = 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bernoulli(1.0 / 3) {
			hits++
		}
	}
	got := float64(hits) / draws
	if math.Abs(got-1.0/3) > 0.01 {
		t.Fatalf("Bernoulli(1/3) rate %.4f, want ~0.3333", got)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(21)
	prop := func(nRaw uint8) bool {
		n := int(nRaw)%64 + 1
		p := r.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermZero(t *testing.T) {
	if p := New(1).Perm(0); len(p) != 0 {
		t.Fatalf("Perm(0) = %v, want empty", p)
	}
}

func TestSampleIntsDistinctAndInRange(t *testing.T) {
	r := New(23)
	prop := func(nRaw, kRaw uint8) bool {
		n := int(nRaw)%50 + 1
		k := int(kRaw) % (n + 1)
		s := r.SampleInts(n, k)
		if len(s) != k {
			return false
		}
		seen := make(map[int]bool, k)
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleIntsUniform(t *testing.T) {
	// Each element of [0,n) must appear in a k-sample with probability k/n.
	r := New(29)
	const n, k, draws = 10, 3, 60000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		for _, v := range r.SampleInts(n, k) {
			counts[v]++
		}
	}
	want := float64(draws) * k / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("element %d sampled %d times, want about %.0f", v, c, want)
		}
	}
}

func TestSampleIntsIntoMatchesSampleInts(t *testing.T) {
	// Same values, same order, same generator state afterwards — over one
	// table reused across every call with that n — and no allocation.
	for _, n := range []int{1, 2, 3, 7, 64, 499} {
		table := make([]int, n)
		for i := range table {
			table[i] = i
		}
		for _, k := range []int{0, 1, 2, n / 2, n - 1, n} {
			if k > n {
				continue
			}
			out := make([]int, k)
			for seed := uint64(0); seed < 20; seed++ {
				ref, got := New(seed), New(seed)
				want := ref.SampleInts(n, k)
				got.SampleIntsInto(out, table)
				if !slices.Equal(out, want) {
					t.Fatalf("n=%d k=%d seed=%d: SampleIntsInto = %v, SampleInts = %v", n, k, seed, out, want)
				}
				if got.Uint64() != ref.Uint64() {
					t.Fatalf("n=%d k=%d seed=%d: generators diverged", n, k, seed)
				}
				for i, v := range table {
					if v != i {
						t.Fatalf("n=%d k=%d seed=%d: table[%d] = %d after the call", n, k, seed, i, v)
					}
				}
			}
			r := New(1)
			if allocs := testing.AllocsPerRun(10, func() { r.SampleIntsInto(out, table) }); allocs != 0 {
				t.Errorf("n=%d k=%d: %v allocs per call, want 0", n, k, allocs)
			}
		}
	}
}

func TestSampleIntsIntoPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SampleIntsInto(k > n) did not panic")
		}
	}()
	New(1).SampleIntsInto(make([]int, 4), make([]int, 3))
}

func TestSampleIntsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SampleInts(3, 4) did not panic")
		}
	}()
	New(1).SampleInts(3, 4)
}

func TestIntnExcept(t *testing.T) {
	r := New(31)
	for i := 0; i < 5000; i++ {
		v := r.IntnExcept(10, 4)
		if v < 0 || v >= 10 || v == 4 {
			t.Fatalf("IntnExcept(10, 4) = %d", v)
		}
	}
	// except outside the domain means plain Intn.
	for i := 0; i < 100; i++ {
		if v := r.IntnExcept(3, -1); v < 0 || v >= 3 {
			t.Fatalf("IntnExcept(3, -1) = %d", v)
		}
	}
}

func TestIntnExceptUniform(t *testing.T) {
	r := New(37)
	const n, except, draws = 8, 2, 70000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.IntnExcept(n, except)]++
	}
	if counts[except] != 0 {
		t.Fatalf("excluded value drawn %d times", counts[except])
	}
	want := float64(draws) / (n - 1)
	for v, c := range counts {
		if v == except {
			continue
		}
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("value %d drawn %d times, want about %.0f", v, c, want)
		}
	}
}

func TestIntnExceptPanicsOnEmptyDomain(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("IntnExcept(1, 0) did not panic")
		}
	}()
	New(1).IntnExcept(1, 0)
}

func TestShuffleIsPermutation(t *testing.T) {
	r := New(41)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make([]bool, len(xs))
	for _, v := range xs {
		seen[v] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("value %d lost by Shuffle: %v", i, xs)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(43)
	const draws = 200000
	var sum, sumSq float64
	for i := 0; i < draws; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / draws
	variance := sumSq/draws - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean %.4f, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance %.4f, want ~1", variance)
	}
}

func TestMul64(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%d, %d) = (%d, %d), want (%d, %d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink ^= r.Intn(1000)
	}
	_ = sink
}
