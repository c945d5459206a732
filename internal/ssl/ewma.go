package ssl

// EWMABank is an alternative per-set stress metric, implementing the
// paper's closing future-work direction ("exploring other metrics, to
// obtain a more accurate picture of the state of the cache"): instead of a
// saturating up/down counter, each set group tracks an exponentially
// weighted moving average of its miss ratio in fixed point.
//
// Classification mirrors the SSL bands so the ASCC machinery is unchanged:
// a set is a receiver below LowThreshold, a spiller above HighThreshold,
// neutral in between. Unlike the SSL — where one hit cancels exactly one
// miss — the EWMA gives recent behaviour geometrically more weight, so it
// reacts faster to phase changes and is not pinned by equal hit/miss rates.
type EWMABank struct {
	numSets int
	d       int // log2(sets per tracker), fixed (no AVGCC resize for EWMA)

	// avg is the miss-ratio EWMA in 16-bit fixed point (0 = all hits,
	// 65535 = all misses).
	avg []uint16

	// shift sets the smoothing factor alpha = 1/2^shift.
	shift uint

	// thresholds in the same fixed point.
	low, high uint16
}

// NewEWMABank builds an EWMA tracker with one entry per set, smoothing
// alpha = 1/8, and the default receiver/spiller thresholds (miss ratios
// 0.35 and 0.75).
func NewEWMABank(numSets int) *EWMABank {
	if numSets <= 0 || numSets&(numSets-1) != 0 {
		panic("ssl: numSets must be a positive power of two")
	}
	b := &EWMABank{
		numSets: numSets,
		avg:     make([]uint16, numSets),
		shift:   3,
		low:     ratio16(0.35),
		high:    ratio16(0.75),
	}
	for i := range b.avg {
		b.avg[i] = b.low - 1 // start just inside the receiver band (like SSL's K-1)
	}
	return b
}

// ratio16 converts a fraction in [0, 1] to 16-bit fixed point.
func ratio16(f float64) uint16 { return uint16(f * 65535) }

// SetGranularity groups 2^d adjacent sets per tracker.
func (b *EWMABank) SetGranularity(d int) {
	if d < 0 || b.numSets>>d < 1 {
		panic("ssl: bad EWMA granularity")
	}
	b.d = d
	for i := 0; i < b.numSets>>d; i++ {
		b.avg[i] = b.low - 1
	}
}

func (b *EWMABank) idx(set int) int { return set >> b.d }

// Observe folds one access outcome into the set's EWMA.
func (b *EWMABank) Observe(set int, hit bool) {
	i := b.idx(set)
	old := uint32(b.avg[i])
	var sample uint32
	if !hit {
		sample = 65535
	}
	b.avg[i] = uint16(old - old>>b.shift + sample>>b.shift)
}

// MissRatio returns the set's current smoothed miss ratio in [0, 1].
func (b *EWMABank) MissRatio(set int) float64 {
	return float64(b.avg[b.idx(set)]) / 65535
}

// Role classifies the set with the same three states as the SSL design.
func (b *EWMABank) Role(set int) Role {
	switch v := b.avg[b.idx(set)]; {
	case v < b.low:
		return Receiver
	case v >= b.high:
		return Spiller
	default:
		return Neutral
	}
}

// Value maps the EWMA onto the SSL's [0, 2K-1] scale for a given
// associativity, so receiver ordering (lowest first) keeps working.
func (b *EWMABank) Value(set int, assoc int) int {
	return int(b.MissRatio(set) * float64(2*assoc-1))
}
