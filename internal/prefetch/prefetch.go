// Package prefetch implements the 16 kB stride prefetcher attached to each
// LLC in the paper's §6.3 sensitivity experiment.
//
// The prefetcher observes the demand stream of its cache at line (block)
// granularity, detects constant-stride sequences within aligned address
// regions, and — once a stride has been confirmed twice — proposes the next
// lines of the sequence. The CMP engine fetches proposals from memory into
// the LLC, consuming bus and memory bandwidth, which is exactly the
// interaction with the cooperative policies the paper studies.
package prefetch

// regionShift groups blocks into 4 kB regions (128 lines of 32 B) for
// stride tracking: strides are tracked per region, the usual table design.
const regionShift = 7

// entry is one stride-table row: roughly 8 bytes of architectural state
// (tag, last block offset, stride, 2-bit confidence), so the default 2048
// entries model the paper's 16 kB budget.
type entry struct {
	tag    uint64
	last   uint64
	stride int64
	conf   uint8
}

// Stride is a per-cache stride prefetcher.
type Stride struct {
	entries []entry
	mask    uint64
	degree  int

	buf []uint64 // reused proposal buffer
}

// NewStride builds a prefetcher with the given table entries (power of two;
// 2048 models the paper's 16 kB) and prefetch degree (lines proposed per
// confirmed-stride access).
func NewStride(entries, degree int) *Stride {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("prefetch: entries must be a positive power of two")
	}
	if degree <= 0 {
		panic("prefetch: non-positive degree")
	}
	return &Stride{
		entries: make([]entry, entries),
		mask:    uint64(entries - 1),
		degree:  degree,
	}
}

// Default16KB returns the paper's configuration: a 16 kB table (2048
// 8-byte entries) with degree 2.
func Default16KB() *Stride { return NewStride(2048, 2) }

// Observe trains the prefetcher with a demand-accessed block and returns
// the blocks to prefetch (possibly none). Returned slices are only valid
// until the next call.
func (s *Stride) Observe(block uint64) []uint64 {
	region := block >> regionShift
	e := &s.entries[region&s.mask]
	if e.tag != region {
		*e = entry{tag: region, last: block}
		return nil
	}
	stride := int64(block) - int64(e.last)
	if stride == 0 {
		return nil
	}
	if stride == e.stride {
		if e.conf < 3 {
			e.conf++
		}
	} else {
		e.stride = stride
		e.conf = 0
	}
	e.last = block
	if e.conf < 2 {
		return nil
	}
	out := s.buf[:0]
	next := int64(block)
	for i := 0; i < s.degree; i++ {
		next += stride
		if next < 0 {
			break
		}
		out = append(out, uint64(next))
	}
	s.buf = out
	return out
}
