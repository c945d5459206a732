package ssl

import (
	"testing"
	"testing/quick"

	"ascc/internal/rng"
)

// newBank builds a bank with the paper's 2K-1 saturation ceiling.
func newBank(numSets, assoc int) *Bank { return NewBankMax(numSets, assoc, 2*assoc-1) }

// countA and countB read AVGCC's A and B counters as Resize counts them.
func countA(b *Bank) int { a, _ := b.countAB(); return a }
func countB(b *Bank) int { _, below := b.countAB(); return below }

// counters returns the live counter values in whole SSL units.
func counters(b *Bank) []int {
	out := make([]int, b.InUse())
	for i := range out {
		out[i] = b.counters[i] >> fracBits
	}
	return out
}

func TestInitialState(t *testing.T) {
	b := newBank(16, 8)
	if b.assoc != 8 || b.NumSets() != 16 || b.d != 0 || b.InUse() != 16 {
		t.Fatalf("unexpected initial geometry: %+v", b)
	}
	for s := 0; s < 16; s++ {
		if v := b.Value(s); v != 7 {
			t.Fatalf("initial SSL[%d] = %d, want K-1 = 7", s, v)
		}
		if b.Role(s) != Receiver {
			t.Fatalf("initial role of set %d = %v, want receiver", s, b.Role(s))
		}
		if b.BIPMode(s) {
			t.Fatalf("set %d starts in BIP mode", s)
		}
	}
	if countB(b) != 16 {
		t.Fatalf("initial B = %d, want 16 (all below K)", countB(b))
	}
	if countA(b) != 8 {
		t.Fatalf("initial A = %d, want 8 (all pairs similar)", countA(b))
	}
}

func TestSaturationBounds(t *testing.T) {
	b := newBank(4, 8) // counters in [0, 15]
	for i := 0; i < 100; i++ {
		b.OnMiss(0)
	}
	if v := b.Value(0); v != 15 {
		t.Fatalf("saturated high at %d, want 2K-1 = 15", v)
	}
	if b.Role(0) != Spiller {
		t.Fatalf("saturated counter role = %v, want spiller", b.Role(0))
	}
	for i := 0; i < 200; i++ {
		b.OnHit(0)
	}
	if v := b.Value(0); v != 0 {
		t.Fatalf("saturated low at %d, want 0", v)
	}
	if b.Role(0) != Receiver {
		t.Fatalf("zero counter role = %v, want receiver", b.Role(0))
	}
}

func TestRoleThresholds(t *testing.T) {
	b := newBank(4, 8)
	// Start at 7 (K-1). One miss -> 8 = K: neutral.
	b.OnMiss(0)
	if b.Value(0) != 8 || b.Role(0) != Neutral {
		t.Fatalf("SSL=%d role=%v, want 8/neutral", b.Value(0), b.Role(0))
	}
	// Climb to 14: still neutral. 15: spiller.
	for i := 0; i < 6; i++ {
		b.OnMiss(0)
	}
	if b.Value(0) != 14 || b.Role(0) != Neutral {
		t.Fatalf("SSL=%d role=%v, want 14/neutral", b.Value(0), b.Role(0))
	}
	b.OnMiss(0)
	if b.Value(0) != 15 || b.Role(0) != Spiller {
		t.Fatalf("SSL=%d role=%v, want 15/spiller", b.Value(0), b.Role(0))
	}
	// One hit drops it out of spiller.
	b.OnHit(0)
	if b.Role(0) != Neutral {
		t.Fatalf("role after hit = %v, want neutral", b.Role(0))
	}
}

func TestRoleTwoState(t *testing.T) {
	b := newBank(4, 8)
	if b.RoleTwoState(0) != Receiver {
		t.Fatal("K-1 should be receiver in 2-state mode")
	}
	b.OnMiss(0) // -> K
	if b.RoleTwoState(0) != Spiller {
		t.Fatal("K should be spiller in 2-state mode")
	}
}

func TestGranularityGrouping(t *testing.T) {
	b := newBank(16, 8)
	b.SetGranularity(2) // 4 sets per counter
	if b.InUse() != 4 {
		t.Fatalf("in use = %d, want 4", b.InUse())
	}
	// Sets 0..3 share counter 0.
	b.OnMiss(1)
	for s := 0; s < 4; s++ {
		if b.Value(s) != 8 {
			t.Fatalf("set %d SSL = %d, want shared 8", s, b.Value(s))
		}
	}
	if b.Value(4) != 7 {
		t.Fatalf("set 4 SSL = %d, want untouched 7", b.Value(4))
	}
}

func TestBCounterTracksBelowK(t *testing.T) {
	b := newBank(8, 4) // K=4, counters start at 3, B=8
	if countB(b) != 8 {
		t.Fatalf("B = %d, want 8", countB(b))
	}
	b.OnMiss(0) // counter 0: 3->4, leaves below-K
	if countB(b) != 7 {
		t.Fatalf("B = %d after crossing up, want 7", countB(b))
	}
	b.OnHit(0) // 4->3, back below K
	if countB(b) != 8 {
		t.Fatalf("B = %d after crossing down, want 8", countB(b))
	}
}

func TestACounterTracksSimilarPairs(t *testing.T) {
	b := newBank(8, 4)
	if countA(b) != 4 {
		t.Fatalf("A = %d, want 4", countA(b))
	}
	// Push counter 0 three units above counter 1: pair becomes dissimilar.
	b.OnMiss(0)
	b.OnMiss(0)
	if countA(b) != 4 {
		t.Fatalf("A = %d with diff 2 (still similar), want 4", countA(b))
	}
	b.OnMiss(0)
	if countA(b) != 3 {
		t.Fatalf("A = %d with diff 3, want 3", countA(b))
	}
	// Pull it back: similar again.
	b.OnHit(0)
	if countA(b) != 4 {
		t.Fatalf("A = %d after rebalance, want 4", countA(b))
	}
}

func TestACountsPolicyBit(t *testing.T) {
	b := newBank(8, 4)
	b.SetBIPMode(0, true) // counter 0 differs from counter 1 in policy
	if countA(b) != 3 {
		t.Fatalf("A = %d after policy divergence, want 3", countA(b))
	}
	b.SetBIPMode(1, true)
	if countA(b) != 4 {
		t.Fatalf("A = %d after policies match again, want 4", countA(b))
	}
	// Setting the same value twice is a no-op.
	b.SetBIPMode(1, true)
	if countA(b) != 4 {
		t.Fatalf("A = %d after redundant set, want 4", countA(b))
	}
}

func TestResizeFinerWhenManyReceivers(t *testing.T) {
	b := newBank(16, 8)
	b.SetGranularity(4) // 1 counter for all sets
	if b.InUse() != 1 {
		t.Fatalf("in use = %d, want 1", b.InUse())
	}
	// The single counter starts at K-1 < K, so B=1 > 1/2=0: refine.
	d, changed := b.Resize()
	if !changed || d != 3 {
		t.Fatalf("resize -> d=%d changed=%v, want 3/true", d, changed)
	}
	if b.InUse() != 2 {
		t.Fatalf("in use = %d after refine, want 2", b.InUse())
	}
	// Counters were reinitialised.
	if b.Value(0) != 7 || b.Value(15) != 7 {
		t.Fatal("counters not reinitialised after resize")
	}
}

func TestResizeCoarserWhenAllPairsSimilar(t *testing.T) {
	b := newBank(16, 8)
	// Push every counter to neutral so B = 0, keep pairs similar.
	for s := 0; s < 16; s++ {
		b.OnMiss(s)
		b.OnMiss(s)
	}
	if countB(b) != 0 {
		t.Fatalf("B = %d, want 0", countB(b))
	}
	if countA(b) != 8 {
		t.Fatalf("A = %d, want 8", countA(b))
	}
	d, changed := b.Resize()
	if !changed || d != 1 {
		t.Fatalf("resize -> d=%d changed=%v, want 1/true", d, changed)
	}
}

func TestResizeNoChangeWhenMixed(t *testing.T) {
	b := newBank(16, 8)
	// Make exactly half the counters neutral with dissimilar pairs:
	// counters 0,2,4,6,8,10,12,14 get +4 (SSL 11), odd ones stay at 7.
	for s := 0; s < 16; s += 2 {
		for i := 0; i < 4; i++ {
			b.OnMiss(s)
		}
	}
	// B = 8 (odd counters below K), not > 8; A = 0 (diff 4 > 2).
	if countB(b) != 8 || countA(b) != 0 {
		t.Fatalf("B=%d A=%d, want 8/0", countB(b), countA(b))
	}
	if _, changed := b.Resize(); changed {
		t.Fatal("resize changed granularity with neither condition met")
	}
}

func TestResizeRespectsBounds(t *testing.T) {
	b := newBank(4, 8)
	// At finest granularity, refine must not go below 0.
	if b.d != 0 {
		t.Fatal("not at finest")
	}
	// All counters below K: B=4 > 2, but D=0 already.
	if _, changed := b.Resize(); changed {
		t.Fatal("refined below finest granularity")
	}
	// At coarsest, coarsen must not exceed maxD.
	b.SetGranularity(2) // 1 counter
	b.OnMiss(0)         // push to K: B=0; single counter: no pairs, A=0, inUse=1
	if _, changed := b.Resize(); changed {
		t.Fatal("coarsened past a single counter")
	}
}

func TestLimitCounters(t *testing.T) {
	b := newBank(4096, 8)
	b.LimitCounters(128)
	if b.d != 5 || b.InUse() != 128 {
		t.Fatalf("after limit: D=%d inUse=%d, want 5/128", b.d, b.InUse())
	}
	// Refinement stops at the cap even when B favours it (all below K).
	if _, changed := b.Resize(); changed {
		t.Fatal("resize refined beyond the counter limit")
	}
	// Coarsening is still allowed.
	for s := 0; s < 4096; s += 32 {
		b.OnMiss(s)
		b.OnMiss(s) // every counter to SSL 9 -> B = 0, pairs similar
	}
	if d, changed := b.Resize(); !changed || d != 6 {
		t.Fatalf("resize -> d=%d changed=%v, want 6/true", d, changed)
	}
}

func TestQoSFractionalIncrement(t *testing.T) {
	b := newBank(4, 8)
	b.SetMissIncrement(4) // 0.5 in 1.3 fixed point
	b.OnMiss(0)
	if v := b.Value(0); v != 7 {
		t.Fatalf("SSL = %d after 0.5 increment from 7.0, want still 7 (7.5)", v)
	}
	b.OnMiss(0)
	if v := b.Value(0); v != 8 {
		t.Fatalf("SSL = %d after two 0.5 increments, want 8", v)
	}
	// Hits still subtract a full unit.
	b.OnHit(0)
	if v := b.Value(0); v != 7 {
		t.Fatalf("SSL = %d after hit, want 7", v)
	}
	// Zero increment freezes upward movement entirely (full inhibition).
	b.SetMissIncrement(0)
	for i := 0; i < 100; i++ {
		b.OnMiss(0)
	}
	if b.Role(0) != Receiver {
		t.Fatalf("role = %v with zero increment, want receiver", b.Role(0))
	}
	// Clamping.
	b.SetMissIncrement(99)
	if b.MissIncrement() != One {
		t.Fatalf("increment clamped to %d, want %d", b.MissIncrement(), One)
	}
	b.SetMissIncrement(-5)
	if b.MissIncrement() != 0 {
		t.Fatalf("increment clamped to %d, want 0", b.MissIncrement())
	}
}

// TestABInvariantProperty drives the bank with random hits/misses/policy
// flips/resizes and cross-checks the incrementally maintained A and B
// against a from-scratch recount.
func TestABInvariantProperty(t *testing.T) {
	recount := func(b *Bank) (a, bb int) {
		n := b.InUse()
		vals := counters(b)
		for i := 0; i < n; i++ {
			if vals[i] < b.assoc {
				bb++
			}
		}
		for i := 0; i+1 < n; i += 2 {
			d := vals[i] - vals[i+1]
			if d < 0 {
				d = -d
			}
			if d <= 2 && b.BIPMode(i<<b.d) == b.BIPMode((i+1)<<b.d) {
				a++
			}
		}
		return
	}
	f := func(seed uint64) bool {
		r := rng.New(seed)
		b := newBank(32, 8)
		for i := 0; i < 2000; i++ {
			s := r.Intn(32)
			switch r.Intn(10) {
			case 0:
				b.SetBIPMode(s, r.Bernoulli(0.5))
			case 1:
				if r.Bernoulli(0.05) {
					b.Resize()
				}
			case 2, 3, 4:
				b.OnHit(s)
			default:
				b.OnMiss(s)
			}
			wantA, wantB := recount(b)
			if countA(b) != wantA || countB(b) != wantB {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestValueFixedAndCountersView(t *testing.T) {
	b := newBank(4, 8)
	b.OnMiss(0)
	if got := b.counters[b.CounterIndex(0)]; got != 8<<3 {
		t.Fatalf("fixed value = %d, want %d", got, 8<<3)
	}
	c := counters(b)
	if len(c) != 4 || c[0] != 8 || c[1] != 7 {
		t.Fatalf("counters view = %v", c)
	}
}

func TestRoleString(t *testing.T) {
	if Receiver.String() != "receiver" || Neutral.String() != "neutral" || Spiller.String() != "spiller" {
		t.Fatal("role names wrong")
	}
}

func TestNewBankValidation(t *testing.T) {
	for _, bad := range []struct{ sets, k int }{{0, 8}, {3, 8}, {8, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("newBank(%d,%d) did not panic", bad.sets, bad.k)
				}
			}()
			newBank(bad.sets, bad.k)
		}()
	}
}

// TestLazyABMatchesRecount drives a bank through a randomized interleave of
// every mutation (hits, misses with a fractional QoS increment, policy-bit
// flips, granularity changes, resizes) and checks A and B after each step
// against a brute-force recount from the public per-set state. This pins
// the A/B count Resize reads: it must always equal the values incremental
// bookkeeping would have produced.
func TestLazyABMatchesRecount(t *testing.T) {
	const sets, assoc = 16, 4
	b := NewBankMax(sets, assoc, 2*assoc-1)
	oracle := func() (a, bb int) {
		n := b.InUse()
		step := sets / n // sets per counter
		for i := 0; i < n; i++ {
			if b.Value(i*step) < assoc {
				bb++
			}
		}
		for i := 0; i+1 < n; i += 2 {
			lo, hi := i*step, (i+1)*step
			d := b.Value(lo) - b.Value(hi)
			if d < 0 {
				d = -d
			}
			if d <= 2 && b.BIPMode(lo) == b.BIPMode(hi) {
				a++
			}
		}
		return a, bb
	}
	state := uint64(0x9e3779b97f4a7c15)
	next := func(n int) int {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int(state % uint64(n))
	}
	for step := 0; step < 2000; step++ {
		set := next(sets)
		switch next(7) {
		case 0, 1:
			b.OnMiss(set)
		case 2, 3:
			b.OnHit(set)
		case 4:
			b.SetBIPMode(set, next(2) == 1)
		case 5:
			b.SetMissIncrement(1 + next(One))
		case 6:
			if next(4) == 0 {
				b.Resize()
			}
		}
		wantA, wantB := oracle()
		if gotA, gotB := countA(b), countB(b); gotA != wantA || gotB != wantB {
			t.Fatalf("step %d: A/B = (%d,%d), recount (%d,%d)", step, gotA, gotB, wantA, wantB)
		}
	}
}
