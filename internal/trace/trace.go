// Package trace defines the memory-reference streams that drive the
// simulator and a small library of composable address-pattern components.
//
// A Generator yields an endless stream of references; the per-benchmark
// models in internal/workload are built by mixing components (sequential
// streams, cyclic loops, uniform random walks, Zipf-skewed region accesses,
// hot-line pools) over disjoint address regions, which is how the synthetic
// SPEC CPU2006 stand-ins reproduce the footprint, reuse-distance and per-set
// skew properties the paper's policies react to (see DESIGN.md §3).
package trace

import (
	"fmt"
	"math"
	"math/bits"

	"ascc/internal/rng"
)

// Ref is one memory reference produced by a generator.
type Ref struct {
	Addr  uint64 // byte address
	Write bool
	Gap   int32 // non-memory instructions executed before this reference
}

// Generator produces an endless reference stream.
type Generator interface {
	// Name identifies the stream (benchmark name for workload models).
	Name() string
	// Next returns the next reference. Implementations must be
	// deterministic for a fixed construction seed.
	Next() Ref
	// NextBatch fills buf with the next len(buf) references — exactly
	// equivalent to len(buf) successive Next calls, but one dynamic
	// dispatch for the whole batch. The simulator's per-core stepping pulls
	// from a refilled batch buffer, so this is the hot entry point.
	NextBatch(buf []Ref)
}

// Component produces addresses within a region; the Composite generator
// mixes several weighted components and adds instruction gaps and writes.
type Component interface {
	// NextAddr returns the next byte address of this pattern.
	NextAddr(r *rng.Xoshiro256) uint64
}

// SeqStream walks sequentially through [Base, Base+Footprint) with the given
// stride, wrapping around: the classic streaming pattern (milc, libquantum,
// lbm). A footprint much larger than the LLC makes every access a miss with
// no reuse.
type SeqStream struct {
	Base      uint64
	Footprint uint64
	Stride    uint64
	pos       uint64
}

// NextAddr implements Component.
func (s *SeqStream) NextAddr(_ *rng.Xoshiro256) uint64 {
	a := s.Base + s.pos
	s.pos += s.Stride
	if s.pos >= s.Footprint {
		s.pos = 0
	}
	return a
}

// Loop is a cyclic walk over a working set. It is structurally a SeqStream;
// the distinct type documents intent (a loop's footprint is commensurate
// with the cache, so its hit rate depends on allocated capacity — the
// "benefits from more ways" benchmarks of Fig. 1).
type Loop struct {
	Base      uint64
	Footprint uint64
	Stride    uint64
	pos       uint64
}

// NextAddr implements Component.
func (l *Loop) NextAddr(_ *rng.Xoshiro256) uint64 {
	a := l.Base + l.pos
	l.pos += l.Stride
	if l.pos >= l.Footprint {
		l.pos = 0
	}
	return a
}

// RandomWalk picks lines uniformly inside its region (mcf-style pointer
// chasing over a huge heap).
type RandomWalk struct {
	Base      uint64
	Footprint uint64
	Align     uint64 // address alignment, typically the line size

	n uint64 // cached Footprint/Align (computed on first use)
}

// NextAddr implements Component.
func (w *RandomWalk) NextAddr(r *rng.Xoshiro256) uint64 {
	if w.n == 0 {
		if w.Align == 0 {
			w.Align = 32
		}
		w.n = w.Footprint / w.Align
	}
	// Inline r.Uint64n(w.n), with the modulo strength-reduced to a mask for
	// power-of-two line counts (every workload model's case): bit-identical
	// to the division, minus the ~30-cycle DIV on the per-reference path.
	u := r.Uint64()
	var i uint64
	if n := w.n; n&(n-1) == 0 {
		i = u & (n - 1)
	} else {
		i = u % n
	}
	return w.Base + i*w.Align
}

// ZipfRegions divides its footprint into NumRegions regions, picks a region
// with Zipf skew and runs a short sequential burst inside it. This creates
// the non-uniform per-set demand the paper motivates with Fig. 2: popular
// regions keep a subset of cache sets under pressure while others idle.
type ZipfRegions struct {
	Base       uint64
	Footprint  uint64
	NumRegions int
	Skew       float64
	BurstLen   int // references per burst
	Stride     uint64

	zipf       *rng.Zipf
	curBase    uint64
	curOff     uint64
	burstPos   int
	regionSize uint64 // cached Footprint/NumRegions
	maxOff     uint64 // cached regionSize/Stride, at least 1
}

// NextAddr implements Component.
func (z *ZipfRegions) NextAddr(r *rng.Xoshiro256) uint64 {
	if z.zipf == nil {
		if z.Stride == 0 {
			z.Stride = 32
		}
		z.zipf = rng.NewZipf(r, z.NumRegions, z.Skew)
		z.regionSize = z.Footprint / uint64(z.NumRegions)
		z.maxOff = z.regionSize / z.Stride
		if z.maxOff == 0 {
			z.maxOff = 1
		}
	}
	if z.burstPos == 0 {
		region := z.zipf.Next()
		z.curBase = z.Base + uint64(region)*z.regionSize
		// r.Uint64n(maxOff) with the modulo reduced to a mask when the
		// offset count is a power of two (bit-identical to the division).
		u := r.Uint64()
		var off uint64
		if n := z.maxOff; n&(n-1) == 0 {
			off = u & (n - 1)
		} else {
			off = u % n
		}
		z.curOff = off * z.Stride
		z.burstPos = z.BurstLen
		if z.burstPos <= 0 {
			z.burstPos = 1
		}
	}
	a := z.curBase + z.curOff
	z.curOff += z.Stride
	if z.curOff >= z.regionSize {
		z.curOff = 0
	}
	z.burstPos--
	return a
}

// ColumnWalk models column-major traversal of a row-major matrix (blocked
// linear algebra, dynamic-programming tables): consecutive accesses are
// RowStride bytes apart, so when RowStride is a multiple of the cache's
// set span (sets × line size) a whole column of Rows lines maps to a single
// set and produces an uninterrupted burst of misses there. This is the
// per-set demand imbalance the paper's Figure 2 motivates: individual sets
// saturate (and spill) while their neighbours idle.
type ColumnWalk struct {
	Base      uint64
	Rows      int    // mean lines per column (same-set consecutive accesses)
	Cols      int    // columns; column c maps to set (base/line + SetOffset + c) mod sets
	SetOffset int    // first column's set index relative to Base (in lines)
	RowStride uint64 // byte distance between rows; the cache set span
	// VarRows gives each column a deterministic height in [Rows/2, 3*Rows/2)
	// — a ragged matrix. Different sets then need very different numbers of
	// ways, which is precisely the per-set heterogeneity (Fig. 2) that
	// set-granular policies exploit and cache-global ones cannot.
	VarRows  bool
	row, col int
}

// colRows returns the height of the current column.
func (w *ColumnWalk) colRows() int {
	if !w.VarRows {
		return w.Rows
	}
	h := w.Rows/2 + int(rng.Mix64(uint64(w.col)^w.Base)%uint64(w.Rows))
	if h < 1 {
		h = 1
	}
	return h
}

// NextAddr implements Component.
func (w *ColumnWalk) NextAddr(_ *rng.Xoshiro256) uint64 {
	a := w.Base + uint64(w.row)*w.RowStride + uint64(w.SetOffset+w.col)*32
	w.row++
	if w.row >= w.colRows() {
		w.row = 0
		w.col++
		if w.col >= w.Cols {
			w.col = 0
		}
	}
	return a
}

// HotLines accesses a small pool of very hot lines uniformly — the high-reuse
// fraction present in nearly every benchmark, keeping some sets' SSL low.
type HotLines struct {
	Base  uint64
	Lines int
	Align uint64
}

// NextAddr implements Component.
func (h *HotLines) NextAddr(r *rng.Xoshiro256) uint64 {
	if h.Align == 0 {
		h.Align = 32
	}
	// Inline r.Intn(h.Lines), with the modulo reduced to a mask for
	// power-of-two pool sizes (bit-identical to the division; every
	// workload model uses a power-of-two pool).
	u := r.Uint64()
	n := uint64(h.Lines)
	var i uint64
	if n&(n-1) == 0 {
		i = u & (n - 1)
	} else {
		i = u % n
	}
	return h.Base + i*h.Align
}

// StridedWalk produces a constant-stride stream with occasional restarts,
// the pattern a stride prefetcher captures (§6.3 sensitivity).
type StridedWalk struct {
	Base      uint64
	Footprint uint64
	Stride    uint64
	RestartP  float64 // probability of jumping to a new start point
	pos       uint64
}

// NextAddr implements Component.
func (s *StridedWalk) NextAddr(r *rng.Xoshiro256) uint64 {
	if s.RestartP > 0 && r.Bernoulli(s.RestartP) {
		s.pos = r.Uint64n(s.Footprint/s.Stride) * s.Stride
	}
	a := s.Base + s.pos
	s.pos += s.Stride
	if s.pos >= s.Footprint {
		s.pos = 0
	}
	return a
}

// Mixed is one weighted component of a Composite.
type Mixed struct {
	Comp      Component
	Weight    float64 // relative selection weight
	WriteFrac float64 // fraction of this component's references that are writes

	// Resolved once by NewComposite: the component's concrete pattern
	// type, its write rule with the draw threshold, and its selection
	// bound (see NextBatch).
	kind   compKind
	write  writeRule
	wLimit uint64 // writeDraw: write iff Uint64()>>11 < wLimit
	pick   uint64 // floor(cumulative weight·2^53)
}

// compKind names a component's concrete pattern type, so the per-reference
// dispatch is a switch on a byte instead of an interface call.
type compKind uint8

const (
	kindOther compKind = iota // any other Component: interface call
	kindHotLines
	kindLoop
	kindZipfRegions
	kindSeqStream
	kindRandomWalk
	kindColumnWalk
)

// writeRule is how a component decides its write flag.
type writeRule uint8

const (
	writeNever  writeRule = iota // WriteFrac <= 0 (or NaN): no draw
	writeAlways                  // WriteFrac >= 1: no draw
	writeDraw                    // one Uint64 draw against wLimit
)

// resolve fills m's kind, write rule and selection bound. Both draws
// compare x = Uint64()>>11, the 53 bits behind rng's Float64() = x/2^53,
// against an integer bound, bit-identically to the float compare: scaling
// by 2^53 is exact, so x/2^53 < f exactly when x < ceil(f·2^53), and
// c < x/2^53 exactly when floor(c·2^53) < x. cum is the normalised
// cumulative weight up to and including m.
func (m *Mixed) resolve(cum float64) {
	m.pick = uint64(math.Ldexp(cum, 53))
	switch m.Comp.(type) {
	case *HotLines:
		m.kind = kindHotLines
	case *Loop:
		m.kind = kindLoop
	case *ZipfRegions:
		m.kind = kindZipfRegions
	case *SeqStream:
		m.kind = kindSeqStream
	case *RandomWalk:
		m.kind = kindRandomWalk
	case *ColumnWalk:
		m.kind = kindColumnWalk
	default:
		m.kind = kindOther
	}
	switch f := m.WriteFrac; {
	case !(f > 0):
		m.write = writeNever
	case f >= 1:
		m.write = writeAlways
	default:
		m.write = writeDraw
		m.wLimit = uint64(math.Ceil(math.Ldexp(f, 53)))
	}
}

// Composite is the standard workload generator: a weighted mixture of
// components plus an instruction-gap model targeting a given reference rate.
type Composite struct {
	name    string
	comps   []Mixed
	gapMean float64 // mean instructions between references
	gapAcc  float64 // fractional-gap accumulator (deterministic dithering)
	r       *rng.Xoshiro256
}

// NewComposite builds a composite generator. refsPerKInstr is the memory
// references issued per 1000 instructions (the L1 sees this stream; the L2
// sees what the L1 misses). seed fixes the random sequence. The generator
// takes comps over, components included, and fills the resolved fields of
// its entries.
func NewComposite(name string, seed uint64, refsPerKInstr float64, comps []Mixed) *Composite {
	if len(comps) == 0 {
		panic("trace: composite with no components")
	}
	if refsPerKInstr <= 0 {
		panic(fmt.Sprintf("trace: non-positive reference rate %v", refsPerKInstr))
	}
	total := 0.0
	for _, c := range comps {
		if c.Weight <= 0 {
			panic(fmt.Sprintf("trace: non-positive component weight %v", c.Weight))
		}
		total += c.Weight
	}
	acc := 0.0
	for i := range comps {
		acc += comps[i].Weight / total
		comps[i].resolve(acc)
	}
	return &Composite{
		name:    name,
		comps:   comps,
		gapMean: 1000.0/refsPerKInstr - 1,
		r:       rng.New(seed),
	}
}

// Name implements Generator.
func (c *Composite) Name() string { return c.name }

// Next implements Generator as a one-element NextBatch.
func (c *Composite) Next() Ref {
	var one [1]Ref
	c.NextBatch(one[:])
	return one[0]
}

// NextBatch implements Generator. Each reference takes the next instruction
// gap, then a component draw from the mixture, then that component's
// address and a write draw. Deterministic dithering spreads the fractional
// part of the mean gap evenly instead of sampling, which is cheaper and
// keeps the instruction rate exact over any window. The batch loop keeps
// the dithering accumulator and the RNG in locals. The component index
// counts the selection bounds below the draw, adding each compare's borrow
// rather than branching on it; since the bounds never decrease, the count
// is the first component whose cumulative weight reaches Float64(), as a
// scan would find. The dispatch switches on the kind NewComposite resolved
// rather than calling through the interface: the per-reference NextAddr is
// the hottest dynamic call in synthesis, and the direct calls both skip
// the itab indirection and let the draw-free patterns (sequential streams,
// loops, column walks) inline.
func (c *Composite) NextBatch(buf []Ref) {
	r := c.r
	acc := c.gapAcc
	mean := c.gapMean
	comps := c.comps
	bounds := comps[:len(comps)-1]
	for i := range buf {
		acc += mean
		gap := int32(acc)
		acc -= float64(gap)

		var idx uint64
		if len(bounds) > 0 {
			x := r.Uint64() >> 11
			for j := range bounds {
				_, lt := bits.Sub64(bounds[j].pick, x, 0)
				idx += lt
			}
		}
		m := &comps[idx]
		var addr uint64
		switch m.kind {
		case kindHotLines:
			addr = m.Comp.(*HotLines).NextAddr(r)
		case kindLoop:
			addr = m.Comp.(*Loop).NextAddr(r)
		case kindZipfRegions:
			addr = m.Comp.(*ZipfRegions).NextAddr(r)
		case kindSeqStream:
			addr = m.Comp.(*SeqStream).NextAddr(r)
		case kindRandomWalk:
			addr = m.Comp.(*RandomWalk).NextAddr(r)
		case kindColumnWalk:
			addr = m.Comp.(*ColumnWalk).NextAddr(r)
		default:
			addr = m.Comp.NextAddr(r)
		}
		write := m.write == writeAlways
		if m.write == writeDraw {
			write = r.Uint64()>>11 < m.wLimit
		}
		buf[i] = Ref{Addr: addr, Write: write, Gap: gap}
	}
	c.gapAcc = acc
}

// Counted wraps a Generator and counts emitted references; used by tests.
type Counted struct {
	Generator
	N uint64
}

// Next implements Generator.
func (c *Counted) Next() Ref {
	c.N++
	return c.Generator.Next()
}

// NextBatch implements Generator.
func (c *Counted) NextBatch(buf []Ref) {
	c.N += uint64(len(buf))
	c.Generator.NextBatch(buf)
}
