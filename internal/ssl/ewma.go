package ssl

// EWMABank is an alternative per-set stress metric, implementing the
// paper's closing future-work direction ("exploring other metrics, to
// obtain a more accurate picture of the state of the cache"): instead of a
// saturating up/down counter, each set tracks an exponentially weighted
// moving average of its miss ratio in fixed point. There is one tracker per
// set: the metric has no set grouping and no AVGCC resize.
//
// Classification mirrors the SSL bands so the ASCC machinery is unchanged:
// a set is a receiver below LowThreshold, a spiller above HighThreshold,
// neutral in between. Unlike the SSL — where one hit cancels exactly one
// miss — the EWMA gives recent behaviour geometrically more weight, so it
// reacts faster to phase changes and is not pinned by equal hit/miss rates.
type EWMABank struct {
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
		avg:   make([]uint16, numSets),
		shift: 3,
		low:   ratio16(0.35),
		high:  ratio16(0.75),
	}
	for i := range b.avg {
		b.avg[i] = b.low - 1 // start just inside the receiver band (like SSL's K-1)
	}
	return b
}

// ratio16 converts a fraction in [0, 1] to 16-bit fixed point.
func ratio16(f float64) uint16 { return uint16(f * 65535) }

// Observe folds one access outcome into the set's EWMA.
func (b *EWMABank) Observe(set int, hit bool) {
	old := uint32(b.avg[set])
	var sample uint32
	if !hit {
		sample = 65535
	}
	b.avg[set] = uint16(old - old>>b.shift + sample>>b.shift)
}

// MissRatio returns the set's current smoothed miss ratio in [0, 1].
func (b *EWMABank) MissRatio(set int) float64 {
	return float64(b.avg[set]) / 65535
}

// Role classifies the set with the same three states as the SSL design.
func (b *EWMABank) Role(set int) Role {
	switch v := b.avg[set]; {
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
