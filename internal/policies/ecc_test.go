package policies

import (
	"testing"

	"ascc/internal/ssl"
)

func TestECCInitialPartition(t *testing.T) {
	p := NewECC(4, 512, 8, 1)
	if p.Name() != "ECC" {
		t.Fatalf("name %q", p.Name())
	}
	for c := 0; c < 4; c++ {
		if p.priv[c] != 4 {
			t.Fatalf("cache %d starts with %d private ways, want 4", c, p.priv[c])
		}
	}
}

func TestECCVictimRegions(t *testing.T) {
	p := NewECC(2, 512, 8, 1)
	demand := p.DemandVictimAllow(0, 0)
	spill := p.SpillVictimAllow(0, 0)
	for w := 0; w < 8; w++ {
		if demand(w) != (w < 4) {
			t.Fatalf("demand region wrong at way %d", w)
		}
		if spill(w) != (w >= 4) {
			t.Fatalf("shared region wrong at way %d", w)
		}
	}
}

func TestECCRepartitionGrowsUnderMisses(t *testing.T) {
	p := NewECC(2, 512, 8, 1)
	// Epoch of heavy missing: private region grows.
	for i := 0; i < 50000; i++ {
		p.OnL2Access(0, i%512, i%2 == 0) // 50% miss rate
	}
	p.Tick(0, 50000)
	if p.priv[0] != 5 {
		t.Fatalf("private ways %d after missy epoch, want 5", p.priv[0])
	}
	// The victim predicates must follow the new partition.
	if p.DemandVictimAllow(0, 0)(4) != true {
		t.Fatal("demand predicate did not track repartition")
	}
	// Epoch of pure hits: private region shrinks.
	for i := 0; i < 50000; i++ {
		p.OnL2Access(0, i%512, true)
	}
	p.Tick(0, 100000)
	if p.priv[0] != 4 {
		t.Fatalf("private ways %d after hit epoch, want 4", p.priv[0])
	}
}

func TestECCRepartitionBounds(t *testing.T) {
	p := NewECC(2, 512, 8, 1)
	// Grow to the limit: never exceeds assoc-1.
	for epoch := 0; epoch < 20; epoch++ {
		for i := 0; i < 50000; i++ {
			p.OnL2Access(0, 0, false)
		}
		p.Tick(0, uint64(epoch+1)*50000)
	}
	if p.priv[0] != 7 {
		t.Fatalf("private ways %d, want capped at 7", p.priv[0])
	}
	// Shrink to the floor: never below 1.
	for epoch := 0; epoch < 20; epoch++ {
		for i := 0; i < 50000; i++ {
			p.OnL2Access(0, 0, true)
		}
		p.Tick(0, uint64(epoch+21)*50000)
	}
	if p.priv[0] != 1 {
		t.Fatalf("private ways %d, want floored at 1", p.priv[0])
	}
}

func TestECCSpillAllocatorPicksMostShared(t *testing.T) {
	p := NewECC(3, 512, 8, 1)
	// Shrink cache 2's private region so it offers the most shared space.
	for i := 0; i < 50000; i++ {
		p.OnL2Access(2, 0, true)
	}
	p.Tick(2, 50000)
	if p.priv[2] != 3 {
		t.Fatalf("setup failed: private ways %d", p.priv[2])
	}
	if rs := p.Receivers(0, 9); len(rs) == 0 || rs[0] != 2 {
		t.Fatalf("spill allocator chose %v, want cache 2 first", rs)
	}
	for _, r := range p.Receivers(2, 9) {
		if r == 2 {
			t.Fatal("spill allocator chose self")
		}
	}
}

func TestECCAlwaysSpiller(t *testing.T) {
	p := NewECC(2, 512, 8, 1)
	if p.Role(0, 100) != ssl.Spiller {
		t.Fatal("ECC sets must always be spill-eligible")
	}
	if p.SwapEnabled() || p.AllowRespill() {
		t.Fatal("ECC has ASCC features on")
	}
}

func TestECCTickOffPeriod(t *testing.T) {
	p := NewECC(2, 512, 8, 1)
	for i := 0; i < 100; i++ {
		p.OnL2Access(0, 0, false)
	}
	p.Tick(0, 12345) // not a period boundary
	if p.priv[0] != 4 {
		t.Fatal("off-period tick repartitioned")
	}
}
