// Package ssl implements the Set Saturation Level machinery of the paper:
// per-set saturating counters (Rolán et al., MICRO'09), the three-way
// spiller/neutral/receiver classification of ASCC, the per-group insertion
// policy bit, and the A/B/D counters that drive AVGCC's dynamic granularity.
//
// Counters are kept in 4.3 fixed point (three fractional bits) so that the
// QoS-Aware AVGCC extension, which adds a fractional QoSRatio on each miss,
// shares the same arithmetic as the plain designs (which always add 1.0).
package ssl

import "fmt"

// Role is the classification of a set (or set group) derived from its SSL.
type Role int

const (
	// Receiver: SSL < K. The set holds its working set comfortably and can
	// host lines spilled by other caches.
	Receiver Role = iota
	// Neutral: K <= SSL < 2K-1. The set neither spills nor receives.
	Neutral
	// Spiller: SSL == 2K-1 (saturated). The set cannot hold its working set
	// and spills last-copy victims.
	Spiller
)

// String names the role.
func (r Role) String() string {
	switch r {
	case Receiver:
		return "receiver"
	case Neutral:
		return "neutral"
	case Spiller:
		return "spiller"
	}
	return fmt.Sprintf("Role(%d)", int(r))
}

// fracBits is the number of fractional bits in the fixed-point counters
// (the paper's QoS design uses 4.3 format).
const fracBits = 3

// One is the fixed-point representation of 1.0 — the default miss increment
// and the hit decrement.
const One = 1 << fracBits

// Bank is the set-saturation-counter state for one cache: the counters, the
// per-group insertion-policy bits, and AVGCC's granularity D (its A and B
// counts are taken from the counters when Resize reads them).
//
// With granularity D, counter i covers sets [i<<D, (i+1)<<D) and the number
// of counters in use is numSets>>D. The backing arrays are sized for the
// finest granularity; only the first numSets>>D entries are live.
type Bank struct {
	numSets int
	assoc   int // K
	kFix    int // K in fixed point
	maxFix  int // (2K-1) in fixed point: saturation ceiling

	d    int // log2(sets per counter)
	maxD int // coarsest allowed (1 counter for the whole cache)
	minD int // finest allowed (raised by the §7 limited-counter experiments)

	counters []int  // fixed point, len numSets
	bip      []bool // insertion-policy bit per counter (true = SABIP/BIP mode)

	missIncr int // fixed point; One normally, QoSRatio<<0 for QoS-AVGCC
}

// NewBankMax creates a bank for a cache with numSets sets (power of two)
// and associativity assoc, at the finest granularity (one counter per set).
// Counters start at K-1 — the receiver side of the K boundary, matching the
// paper's post-resize initialisation. max is the saturation ceiling, which
// must exceed K: the paper's is 2K-1, and its future work suggests "tuning
// the size and limits of saturation counters" — a lower ceiling makes sets
// become spillers after fewer misses, a higher one demands a longer miss
// streak.
func NewBankMax(numSets, assoc, max int) *Bank {
	if numSets <= 0 || numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("ssl: numSets %d not a positive power of two", numSets))
	}
	if assoc <= 0 {
		panic("ssl: non-positive associativity")
	}
	if max <= assoc {
		panic(fmt.Sprintf("ssl: counter ceiling %d must exceed K=%d", max, assoc))
	}
	b := &Bank{
		numSets:  numSets,
		assoc:    assoc,
		kFix:     assoc << fracBits,
		maxFix:   max << fracBits,
		maxD:     log2(numSets),
		counters: make([]int, numSets),
		bip:      make([]bool, numSets),
		missIncr: One,
	}
	b.reinit()
	return b
}

func log2(n int) int {
	d := 0
	for n > 1 {
		n >>= 1
		d++
	}
	return d
}

// NumSets returns the number of sets covered.
func (b *Bank) NumSets() int { return b.numSets }

// InUse returns the number of counters currently live.
func (b *Bank) InUse() int { return b.numSets >> b.d }

// SetGranularity forces granularity exponent d (ASCC with a fixed grouping,
// Table 1). All counters are reinitialised.
func (b *Bank) SetGranularity(d int) {
	if d < 0 || d > b.maxD {
		panic(fmt.Sprintf("ssl: granularity %d outside [0,%d]", d, b.maxD))
	}
	b.d = d
	b.reinit()
}

// LimitCounters caps the number of counters in use to at most max (a power
// of two), implementing the §7 storage-reduction experiments. It raises the
// finest granularity accordingly.
func (b *Bank) LimitCounters(max int) {
	if max <= 0 || max&(max-1) != 0 {
		panic(fmt.Sprintf("ssl: counter limit %d not a positive power of two", max))
	}
	if max > b.numSets {
		max = b.numSets
	}
	b.minD = log2(b.numSets / max)
	if b.d < b.minD {
		b.d = b.minD
		b.reinit()
	}
}

// reinit sets every live counter to K-1 and every policy bit to MRU,
// mirroring the paper's post-resize initialisation.
func (b *Bank) reinit() {
	n := b.InUse()
	init := (b.assoc - 1) << fracBits
	for i := 0; i < n; i++ {
		b.counters[i] = init
		b.bip[i] = false
	}
}

// countAB counts AVGCC's A and B: A is the number of adjacent live counter
// pairs fulfilling the halving condition (absolute SSL difference of at most
// two, in whole SSL units as in the paper, AND the same insertion policy), B
// the number of live counters below K. Resize is the only reader, so the
// count is one O(counters) pass per ResizePeriod accesses rather than
// bookkeeping on every counter nudge.
func (b *Bank) countAB() (a, below int) {
	n := b.InUse()
	for i := 0; i < n; i++ {
		if b.counters[i] < b.kFix {
			below++
		}
	}
	for i := 0; i+1 < n; i += 2 {
		d := b.counters[i]>>fracBits - b.counters[i+1]>>fracBits
		if b.bip[i] == b.bip[i+1] && d >= -2 && d <= 2 {
			a++
		}
	}
	return a, below
}

// CounterIndex maps a set to its live counter.
func (b *Bank) CounterIndex(set int) int { return set >> b.d }

// Value returns the SSL of the counter covering set, in whole units.
func (b *Bank) Value(set int) int { return b.counters[b.CounterIndex(set)] >> fracBits }

// SetMissIncrement sets the fixed-point amount added on each miss — the
// QoS-Aware AVGCC QoSRatio in 1.3 fixed point (0..8 meaning 0.0..1.0).
func (b *Bank) SetMissIncrement(fixed int) {
	if fixed < 0 {
		fixed = 0
	}
	if fixed > One {
		fixed = One
	}
	b.missIncr = fixed
}

// MissIncrement returns the current fixed-point miss increment.
func (b *Bank) MissIncrement() int { return b.missIncr }

// OnMiss records a miss in set: the covering counter saturates upward by the
// miss increment.
func (b *Bank) OnMiss(set int) { b.add(b.CounterIndex(set), b.missIncr) }

// OnHit records a hit in set: the covering counter saturates downward by 1.
func (b *Bank) OnHit(set int) { b.add(b.CounterIndex(set), -One) }

// add applies a delta to counter idx with saturation.
func (b *Bank) add(idx, delta int) {
	v := b.counters[idx] + delta
	if v < 0 {
		v = 0
	}
	if v > b.maxFix {
		v = b.maxFix
	}
	b.counters[idx] = v
}

// Role classifies the set per ASCC: receiver below K, spiller at saturation,
// neutral in between.
func (b *Bank) Role(set int) Role {
	v := b.counters[b.CounterIndex(set)]
	switch {
	case v < b.kFix:
		return Receiver
	case v >= b.maxFix:
		return Spiller
	default:
		return Neutral
	}
}

// RoleTwoState classifies with only two states (the ASCC-2S ablation of
// Fig. 5): spiller when SSL >= K, receiver otherwise.
func (b *Bank) RoleTwoState(set int) Role {
	if b.counters[b.CounterIndex(set)] >= b.kFix {
		return Spiller
	}
	return Receiver
}

// BIPMode reports whether the group covering set currently inserts with
// SABIP/BIP (true) or traditional MRU (false).
func (b *Bank) BIPMode(set int) bool { return b.bip[b.CounterIndex(set)] }

// SetBIPMode switches the insertion policy of the group covering set.
func (b *Bank) SetBIPMode(set int, on bool) { b.bip[b.CounterIndex(set)] = on }

// Resize applies AVGCC's periodic granularity update: if more than half the
// live counters are below K (B > inUse/2) the counter count is doubled
// (finer tracking, D--); else if every live pair is similar (A == inUse/2,
// inUse >= 2) the counter count is halved (coarser tracking, D++). On any
// change the live counters are reinitialised to K-1 with MRU insertion.
// It returns the new D and whether a change happened.
func (b *Bank) Resize() (d int, changed bool) {
	a, below := b.countAB()
	inUse := b.InUse()
	if below > inUse/2 {
		// The workload wants finer tracking; never coarsen in this state,
		// even if the refinement is blocked by the granularity floor.
		if b.d > b.minD {
			b.d--
			b.reinit()
			return b.d, true
		}
		return b.d, false
	}
	if inUse >= 2 && a == inUse/2 && b.d < b.maxD {
		b.d++
		b.reinit()
		return b.d, true
	}
	return b.d, false
}
