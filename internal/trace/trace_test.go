package trace

import (
	"testing"
	"testing/quick"

	"ascc/internal/rng"
)

func TestSeqStreamWraps(t *testing.T) {
	s := &SeqStream{Base: 1000, Footprint: 96, Stride: 32}
	r := rng.New(1)
	want := []uint64{1000, 1032, 1064, 1000, 1032}
	for i, w := range want {
		if got := s.NextAddr(r); got != w {
			t.Fatalf("step %d: addr %d, want %d", i, got, w)
		}
	}
}

func TestLoopMatchesSeqStream(t *testing.T) {
	l := &Loop{Base: 0, Footprint: 128, Stride: 32}
	s := &SeqStream{Base: 0, Footprint: 128, Stride: 32}
	r := rng.New(1)
	for i := 0; i < 20; i++ {
		if l.NextAddr(r) != s.NextAddr(r) {
			t.Fatalf("Loop and SeqStream diverged at step %d", i)
		}
	}
}

func TestRandomWalkStaysInRegion(t *testing.T) {
	w := &RandomWalk{Base: 1 << 20, Footprint: 1 << 16, Align: 32}
	r := rng.New(2)
	for i := 0; i < 10000; i++ {
		a := w.NextAddr(r)
		if a < 1<<20 || a >= 1<<20+1<<16 {
			t.Fatalf("address %#x outside region", a)
		}
		if a%32 != 0 {
			t.Fatalf("address %#x not line-aligned", a)
		}
	}
}

func TestZipfRegionsSkewAndBounds(t *testing.T) {
	z := &ZipfRegions{Base: 0, Footprint: 1 << 20, NumRegions: 16, Skew: 1.1, BurstLen: 8, Stride: 32}
	r := rng.New(3)
	regionSize := uint64(1<<20) / 16
	counts := make([]int, 16)
	for i := 0; i < 64000; i++ {
		a := z.NextAddr(r)
		if a >= 1<<20 {
			t.Fatalf("address %#x outside footprint", a)
		}
		counts[a/regionSize]++
	}
	if counts[0] <= counts[15]*2 {
		t.Fatalf("zipf region skew too weak: first=%d last=%d", counts[0], counts[15])
	}
}

func TestHotLinesPoolSize(t *testing.T) {
	h := &HotLines{Base: 4096, Lines: 8, Align: 32}
	r := rng.New(4)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		seen[h.NextAddr(r)] = true
	}
	if len(seen) != 8 {
		t.Fatalf("hot pool produced %d distinct addresses, want 8", len(seen))
	}
}

func TestStridedWalkMostlySequential(t *testing.T) {
	s := &StridedWalk{Base: 0, Footprint: 1 << 16, Stride: 64, RestartP: 0.01}
	r := rng.New(5)
	prev := s.NextAddr(r)
	sequential := 0
	const n = 10000
	for i := 0; i < n; i++ {
		a := s.NextAddr(r)
		if a == prev+64 {
			sequential++
		}
		prev = a
	}
	if sequential < n*9/10 {
		t.Fatalf("only %d/%d steps sequential, want >90%%", sequential, n)
	}
}

func TestCompositeGapRate(t *testing.T) {
	// 250 refs per kinstr => mean gap of 3 instructions.
	g := NewComposite("x", 1, 250, []Mixed{{Comp: &SeqStream{Footprint: 1 << 20, Stride: 32}, Weight: 1}})
	var instr, refs uint64
	for i := 0; i < 100000; i++ {
		ref := g.Next()
		instr += uint64(ref.Gap) + 1
		refs++
	}
	rate := float64(refs) / float64(instr) * 1000
	if rate < 245 || rate > 255 {
		t.Fatalf("reference rate %.1f per kinstr, want ~250", rate)
	}
}

func TestCompositeWeights(t *testing.T) {
	a := &HotLines{Base: 0, Lines: 1}
	b := &HotLines{Base: 1 << 30, Lines: 1}
	g := NewComposite("x", 7, 100, []Mixed{
		{Comp: a, Weight: 3},
		{Comp: b, Weight: 1},
	})
	var na, nb int
	for i := 0; i < 40000; i++ {
		if g.Next().Addr < 1<<30 {
			na++
		} else {
			nb++
		}
	}
	frac := float64(na) / float64(na+nb)
	if frac < 0.72 || frac > 0.78 {
		t.Fatalf("component A fraction %.3f, want ~0.75", frac)
	}
}

func TestCompositeWriteFraction(t *testing.T) {
	g := NewComposite("x", 9, 100, []Mixed{
		{Comp: &SeqStream{Footprint: 1 << 20, Stride: 32}, Weight: 1, WriteFrac: 0.3},
	})
	writes := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if g.Next().Write {
			writes++
		}
	}
	frac := float64(writes) / n
	if frac < 0.27 || frac > 0.33 {
		t.Fatalf("write fraction %.3f, want ~0.3", frac)
	}
}

func TestCompositeDeterminism(t *testing.T) {
	build := func() *Composite {
		return NewComposite("x", 42, 300, []Mixed{
			{Comp: &ZipfRegions{Footprint: 1 << 20, NumRegions: 8, Skew: 1, BurstLen: 4}, Weight: 2, WriteFrac: 0.2},
			{Comp: &RandomWalk{Footprint: 1 << 22}, Weight: 1},
		})
	}
	g1, g2 := build(), build()
	for i := 0; i < 5000; i++ {
		r1, r2 := g1.Next(), g2.Next()
		if r1 != r2 {
			t.Fatalf("same-seed composites diverged at ref %d: %+v vs %+v", i, r1, r2)
		}
	}
}

func TestCompositeSeedsDiffer(t *testing.T) {
	mk := func(seed uint64) *Composite {
		return NewComposite("x", seed, 300, []Mixed{
			{Comp: &RandomWalk{Footprint: 1 << 22}, Weight: 1},
		})
	}
	g1, g2 := mk(1), mk(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if g1.Next().Addr == g2.Next().Addr {
			same++
		}
	}
	if same > 10 {
		t.Fatalf("different seeds agreed on %d/1000 addresses", same)
	}
}

func TestCompositePanicsOnBadInput(t *testing.T) {
	cases := []func(){
		func() { NewComposite("x", 1, 100, nil) },
		func() { NewComposite("x", 1, 0, []Mixed{{Comp: &HotLines{Lines: 1}, Weight: 1}}) },
		func() { NewComposite("x", 1, 100, []Mixed{{Comp: &HotLines{Lines: 1}, Weight: 0}}) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestGapNonNegativeProperty(t *testing.T) {
	f := func(seed uint64, rate uint8) bool {
		r := float64(rate%200) + 1
		g := NewComposite("x", seed, r, []Mixed{
			{Comp: &SeqStream{Footprint: 1 << 16, Stride: 32}, Weight: 1},
		})
		for i := 0; i < 200; i++ {
			if g.Next().Gap < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCountedWrapper(t *testing.T) {
	g := NewComposite("base", 1, 100, []Mixed{{Comp: &HotLines{Lines: 4}, Weight: 1}})
	c := &Counted{Generator: g}
	for i := 0; i < 17; i++ {
		c.Next()
	}
	if c.N != 17 {
		t.Fatalf("counted %d refs, want 17", c.N)
	}
	if c.Name() != "base" {
		t.Fatalf("name %q, want base", c.Name())
	}
}

// TestDrawBoundsMatchFloatCompares holds the Composite's integer draw
// bounds to the float compares they replace, at the boundary itself: for
// the 53-bit draw x either side of each bound, a write draw must agree
// with Float64() < WriteFrac and a component pick with cum < Float64(),
// where Float64() is x/2^53.
func TestDrawBoundsMatchFloatCompares(t *testing.T) {
	fracs := []float64{0.2, 0.25, 1.0 / 3, 0.05, 0.999999999, 1e-12, 0.5 + 0x1p-40}
	for _, f := range fracs {
		m := Mixed{Comp: &Loop{Footprint: 64, Stride: 32}, Weight: 1, WriteFrac: f}
		m.resolve(f)
		if m.write != writeDraw {
			t.Fatalf("WriteFrac %v: rule %d, want a draw", f, m.write)
		}
		for _, x := range []uint64{m.wLimit - 2, m.wLimit - 1, m.wLimit, m.wLimit + 1} {
			u := float64(x) / (1 << 53)
			if got, want := x < m.wLimit, u < f; got != want {
				t.Errorf("WriteFrac %v, x %d: integer write %v, float %v", f, x, got, want)
			}
		}
		for _, x := range []uint64{m.pick - 1, m.pick, m.pick + 1, m.pick + 2} {
			if got, want := m.pick < x, f < float64(x)/(1<<53); got != want {
				t.Errorf("cum %v, x %d: integer pick %v, float %v", f, x, got, want)
			}
		}
	}
	for _, f := range []float64{0, -1, 1, 2} {
		m := Mixed{Comp: &Loop{Footprint: 64, Stride: 32}, Weight: 1, WriteFrac: f}
		m.resolve(1)
		if want := map[bool]writeRule{false: writeNever, true: writeAlways}[f >= 1]; m.write != want {
			t.Errorf("WriteFrac %v: rule %d, want %d (no draw)", f, m.write, want)
		}
	}
}
