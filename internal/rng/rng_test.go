package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64KnownSequence(t *testing.T) {
	// Reference values for splitmix64 with seed 0 (from the reference C
	// implementation by Vigna).
	s := NewSplitMix64(0)
	want := []uint64{
		0xe220a8397b1dcdaf,
		0x6e789e6aa1b965f4,
		0x06c45d188009454f,
		0xf88bb8a8724c81ec,
		0x1b39896a51a8749b,
	}
	for i, w := range want {
		if got := s.Next(); got != w {
			t.Fatalf("splitmix64[%d] = %#x, want %#x", i, got, w)
		}
	}
}

func TestMix64MatchesSplitMixStep(t *testing.T) {
	// Mix64(x) must equal the output of a SplitMix64 whose state is x.
	f := func(x uint64) bool {
		s := &SplitMix64{state: x}
		return Mix64(x) == s.Next()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestXoshiroDeterminism(t *testing.T) {
	a, b := New(12345), New(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at step %d", i)
		}
	}
	c := New(54321)
	same := 0
	a = New(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different-seed generators agreed %d/1000 times", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(7)
	for n := 1; n <= 64; n++ {
		for i := 0; i < 100; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
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

func TestFloat64Range(t *testing.T) {
	r := New(99)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
		sum += v
	}
	mean := sum / n
	if mean < 0.49 || mean > 0.51 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestBernoulliExtremes(t *testing.T) {
	r := New(3)
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
	r := New(11)
	const n = 200000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(1.0 / 32.0) {
			hits++
		}
	}
	rate := float64(hits) / n
	if rate < 0.025 || rate > 0.038 {
		t.Fatalf("Bernoulli(1/32) rate = %v, want ~0.03125", rate)
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	r := New(5)
	z := NewZipf(r, 4, 0)
	counts := make([]int, 4)
	const n = 80000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	for i, c := range counts {
		frac := float64(c) / n
		if frac < 0.22 || frac > 0.28 {
			t.Fatalf("uniform zipf bucket %d frequency %v, want ~0.25", i, frac)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := New(5)
	z := NewZipf(r, 8, 1.2)
	counts := make([]int, 8)
	const n = 80000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	// Monotone non-increasing in expectation; check first bucket dominates
	// the last by a wide margin.
	if counts[0] < counts[7]*4 {
		t.Fatalf("zipf skew too weak: first=%d last=%d", counts[0], counts[7])
	}
}

func TestZipfInRangeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		z := NewZipf(r, 16, 0.8)
		for i := 0; i < 64; i++ {
			v := z.Next()
			if v < 0 || v >= 16 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkXoshiroUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

// TestZipfMatchesFloatSearch holds the integer, branch-free Zipf search to
// the float binary search over normalised cumulative weights it replaced:
// the same draw must pick the same item, for every table size from one item
// up and for flat and skewed weights.
func TestZipfMatchesFloatSearch(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 33, 256, 1000} {
		for _, s := range []float64{0, 0.6, 0.9, 1.2} {
			cum := make([]float64, n)
			total := 0.0
			for i := range cum {
				total += 1.0 / math.Pow(float64(i+1), s)
				cum[i] = total
			}
			for i := range cum {
				cum[i] /= total
			}
			z := NewZipf(New(uint64(n)), n, s)
			ref := New(uint64(n))
			for k := 0; k < 20000; k++ {
				u := ref.Float64()
				lo, hi := 0, n-1
				for lo < hi {
					mid := (lo + hi) / 2
					if cum[mid] < u {
						lo = mid + 1
					} else {
						hi = mid
					}
				}
				if got := z.Next(); got != lo {
					t.Fatalf("n=%d s=%v draw %d: Next %d, float search %d", n, s, k, got, lo)
				}
			}
		}
	}
}
