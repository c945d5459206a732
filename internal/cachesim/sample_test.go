package cachesim

import "testing"

// TestSampledConfig pins the compact set remap of DESIGN.md §16: the
// sampled geometry keeps line size and associativity and allocates exactly
// 1/den of the sets (line slab, recency state and directory table shrink
// with it via the ordinary constructors).
func TestSampledConfig(t *testing.T) {
	base := Config{SizeBytes: 1 << 17, Ways: 8, LineBytes: 32} // 512 sets

	c, err := SampledConfig(base, 8)
	if err != nil {
		t.Fatal(err)
	}
	cache := New(c)
	if cache.NumSets() != 64 || cache.Ways() != 8 {
		t.Fatalf("sampled geometry %d sets x %d ways, want 64 x 8", cache.NumSets(), cache.Ways())
	}
	if c.LineBytes != base.LineBytes || c.Ways != base.Ways {
		t.Fatalf("sampling changed line size or associativity: %+v", c)
	}

	if c, err := SampledConfig(base, 1); err != nil || c != base {
		t.Fatalf("den<=1 must be the identity: %+v, %v", c, err)
	}
	if _, err := SampledConfig(base, 1024); err == nil {
		t.Fatal("accepted a denominator larger than the set count")
	}
	if _, err := SampledConfig(Config{SizeBytes: 1 << 10, Ways: 32, LineBytes: 32}, 2); err == nil {
		t.Fatal("accepted a fully associative cache")
	}
}
