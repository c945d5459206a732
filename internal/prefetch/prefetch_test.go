package prefetch

import "testing"

func TestStrideDetection(t *testing.T) {
	p := NewStride(64, 2)
	// Blocks 0,1,2: stride 1 confirmed on the third observation.
	if got := p.Observe(0); len(got) != 0 {
		t.Fatalf("prefetch on first touch: %v", got)
	}
	if got := p.Observe(1); len(got) != 0 {
		t.Fatalf("prefetch before confirmation: %v", got)
	}
	if got := p.Observe(2); len(got) != 0 {
		t.Fatalf("prefetch with conf=1: %v", got)
	}
	got := p.Observe(3)
	if len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Fatalf("proposals = %v, want [4 5]", got)
	}
}

func TestStrideNonUnit(t *testing.T) {
	p := NewStride(64, 1)
	for _, b := range []uint64{10, 13, 16, 19} {
		p.Observe(b)
	}
	got := p.Observe(22)
	if len(got) != 1 || got[0] != 25 {
		t.Fatalf("proposals = %v, want [25]", got)
	}
}

func TestStrideBreakResetsConfidence(t *testing.T) {
	p := NewStride(64, 2)
	for _, b := range []uint64{0, 1, 2, 3} {
		p.Observe(b)
	}
	// Break the pattern: jump within the same region.
	if got := p.Observe(40); len(got) != 0 {
		t.Fatalf("prefetch after stride break: %v", got)
	}
	if got := p.Observe(41); len(got) != 0 {
		t.Fatalf("prefetch before re-confirmation: %v", got)
	}
	p.Observe(42)
	if got := p.Observe(43); len(got) != 2 {
		t.Fatalf("stride not re-learned: %v", got)
	}
}

func TestRandomStreamNoPrefetch(t *testing.T) {
	p := NewStride(64, 2)
	// Irregular deltas within one region never confirm.
	blocks := []uint64{0, 5, 7, 20, 21, 50, 3, 90, 11}
	issued := 0
	for _, b := range blocks {
		issued += len(p.Observe(b))
	}
	if issued != 0 {
		t.Fatalf("issued %d prefetches on an irregular stream", issued)
	}
}

func TestRepeatedBlockIgnored(t *testing.T) {
	p := NewStride(64, 2)
	for i := 0; i < 10; i++ {
		if got := p.Observe(7); len(got) != 0 {
			t.Fatalf("prefetch on zero stride: %v", got)
		}
	}
}

func TestRegionConflictReplaces(t *testing.T) {
	p := NewStride(1, 1) // single entry: every region conflicts
	p.Observe(0)
	p.Observe(1)
	p.Observe(2)
	// A different region evicts the trained entry.
	p.Observe(1 << 20)
	if got := p.Observe(3); len(got) != 0 {
		t.Fatalf("prefetch from evicted entry: %v", got)
	}
}

func TestDefault16KB(t *testing.T) {
	p := Default16KB()
	if len(p.entries) != 2048 || p.degree != 2 {
		t.Fatalf("default table %d entries degree %d, want 2048/2", len(p.entries), p.degree)
	}
}

func TestNewStrideValidation(t *testing.T) {
	for _, bad := range []struct{ e, d int }{{0, 1}, {3, 1}, {64, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewStride(%d,%d) did not panic", bad.e, bad.d)
				}
			}()
			NewStride(bad.e, bad.d)
		}()
	}
}

func BenchmarkObserve(b *testing.B) {
	p := Default16KB()
	for i := 0; i < b.N; i++ {
		p.Observe(uint64(i))
	}
}
