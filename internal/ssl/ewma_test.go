package ssl

import "testing"

func TestEWMAInitialReceiver(t *testing.T) {
	b := NewEWMABank(16)
	for s := 0; s < 16; s++ {
		if b.Role(s) != Receiver {
			t.Fatalf("set %d starts as %v, want receiver", s, b.Role(s))
		}
	}
}

func TestEWMAConvergesToMissRatio(t *testing.T) {
	b := NewEWMABank(4)
	// Pure misses: ratio converges toward 1, role to spiller.
	for i := 0; i < 200; i++ {
		b.Observe(0, false)
	}
	if r := b.MissRatio(0); r < 0.95 {
		t.Fatalf("miss ratio %v after pure misses", r)
	}
	if b.Role(0) != Spiller {
		t.Fatalf("role %v, want spiller", b.Role(0))
	}
	// Pure hits: back to receiver.
	for i := 0; i < 200; i++ {
		b.Observe(0, true)
	}
	if r := b.MissRatio(0); r > 0.05 {
		t.Fatalf("miss ratio %v after pure hits", r)
	}
	if b.Role(0) != Receiver {
		t.Fatalf("role %v, want receiver", b.Role(0))
	}
}

func TestEWMANeutralBand(t *testing.T) {
	b := NewEWMABank(4)
	// Alternate hit/miss: ratio ~0.5 sits in the neutral band.
	for i := 0; i < 400; i++ {
		b.Observe(1, i%2 == 0)
	}
	if got := b.MissRatio(1); got < 0.4 || got > 0.6 {
		t.Fatalf("alternating ratio %v, want ~0.5", got)
	}
	if b.Role(1) != Neutral {
		t.Fatalf("role %v, want neutral", b.Role(1))
	}
}

func TestEWMAFasterThanSSLOnPhaseChange(t *testing.T) {
	// The point of the alternative metric: after a long hit phase, a burst
	// of misses flips the EWMA to spiller quicker than the SSL (which must
	// climb the whole [0,2K-1] ladder).
	e := NewEWMABank(4)
	s := newBank(4, 8)
	for i := 0; i < 1000; i++ {
		e.Observe(0, true)
		s.OnHit(0)
	}
	flipsE, flipsS := -1, -1
	for i := 0; i < 64; i++ {
		e.Observe(0, false)
		s.OnMiss(0)
		if flipsE < 0 && e.Role(0) == Spiller {
			flipsE = i
		}
		if flipsS < 0 && s.Role(0) == Spiller {
			flipsS = i
		}
	}
	if flipsE < 0 {
		t.Fatal("EWMA never flipped to spiller")
	}
	if flipsS >= 0 && flipsE >= flipsS {
		t.Fatalf("EWMA flipped at miss %d, SSL at %d: EWMA should be faster", flipsE, flipsS)
	}
}

func TestEWMAValueMapping(t *testing.T) {
	b := NewEWMABank(4)
	for i := 0; i < 300; i++ {
		b.Observe(0, false)
	}
	if v := b.Value(0, 8); v < 13 || v > 15 {
		t.Fatalf("value %d, want near 2K-1=15", v)
	}
	for i := 0; i < 300; i++ {
		b.Observe(0, true)
	}
	if v := b.Value(0, 8); v > 1 {
		t.Fatalf("value %d, want near 0", v)
	}
}

func TestEWMABankValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad set count accepted")
		}
	}()
	NewEWMABank(3)
}
