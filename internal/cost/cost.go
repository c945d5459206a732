// Package cost reproduces the paper's storage-overhead arithmetic (§7,
// Table 5): the baseline tag/data store of a private LLC, the additional
// structures of ASCC/AVGCC (saturation counters, insertion-policy bits, and
// the A/B/D counters), the QoS extension of §8, and the limited-counter
// variants.
//
// Everything here is exact bit arithmetic at the paper's geometry — it is
// independent of the simulation scale divisor.
package cost

import "fmt"

// CacheGeometry describes the cache being costed.
type CacheGeometry struct {
	SizeBytes   int
	Ways        int
	LineBytes   int
	AddressBits int // paper: 42
}

// PaperGeometry returns Table 5's 1 MB / 8-way / 32 B / 42-bit baseline.
func PaperGeometry() CacheGeometry {
	return CacheGeometry{SizeBytes: 1 << 20, Ways: 8, LineBytes: 32, AddressBits: 42}
}

// Sets returns the number of sets.
func (g CacheGeometry) Sets() int { return g.SizeBytes / g.LineBytes / g.Ways }

// Lines returns the number of cache lines (tag/data entries).
func (g CacheGeometry) Lines() int { return g.SizeBytes / g.LineBytes }

func log2(n int) int {
	d := 0
	for n > 1 {
		n >>= 1
		d++
	}
	return d
}

// TagEntryBits returns bits per tag-store entry: MESI+LRU state (5 bits in
// the paper's accounting) plus the tag itself
// (addressBits - log2(sets) - log2(lineBytes)).
func (g CacheGeometry) TagEntryBits() int {
	return 5 + g.AddressBits - log2(g.Sets()) - log2(g.LineBytes)
}

// TagStoreBits returns total tag-store bits.
func (g CacheGeometry) TagStoreBits() int { return g.TagEntryBits() * g.Lines() }

// DataStoreBits returns total data-store bits.
func (g CacheGeometry) DataStoreBits() int { return g.SizeBytes * 8 }

// BaselineTotalBits returns tag store + data store.
func (g CacheGeometry) BaselineTotalBits() int { return g.TagStoreBits() + g.DataStoreBits() }

// Overhead describes an addition over the baseline cache.
type Overhead struct {
	Name string
	Bits int
}

// Report is a costed design.
type Report struct {
	Geometry  CacheGeometry
	Overheads []Overhead
}

// TotalOverheadBits sums the additional storage.
func (r Report) TotalOverheadBits() int {
	n := 0
	for _, o := range r.Overheads {
		n += o.Bits
	}
	return n
}

// OverheadFraction is the exact overhead relative to the baseline total.
func (r Report) OverheadFraction() float64 {
	return float64(r.TotalOverheadBits()) / float64(r.Geometry.BaselineTotalBits())
}

// PaperRoundedPercent reproduces Table 5's arithmetic, which rounds both
// totals down to whole kilobytes before comparing (1146 kB vs 1144 kB →
// 0.17%). The exact fraction (OverheadFraction) is slightly larger.
func (r Report) PaperRoundedPercent() float64 {
	baseKB := r.Geometry.BaselineTotalBits() / 8 / 1024
	totalKB := (r.Geometry.BaselineTotalBits() + r.TotalOverheadBits()) / 8 / 1024
	return 100 * float64(totalKB-baseKB) / float64(baseKB)
}

// sslCounterBits is the per-counter size: the counters span [0, 2K-1], so
// they need log2(2K) bits (4 bits for the paper's 8-way cache).
func sslCounterBits(ways int) int { return log2(2 * ways) }

// ASCCReport costs ASCC at the finest granularity: one saturation counter
// and one insertion-policy bit per set.
func ASCCReport(g CacheGeometry) Report {
	sets := g.Sets()
	return Report{
		Geometry: g,
		Overheads: []Overhead{
			{Name: "saturation counters", Bits: sets * sslCounterBits(g.Ways)},
			{Name: "insertion policy bits", Bits: sets},
		},
	}
}

// AVGCCReport costs AVGCC with at most maxCounters counters (0 = one per
// set): the counters and policy bits, plus the A, B (12 bits each) and D
// (4 bits) counters of the halving/duplication mechanism.
func AVGCCReport(g CacheGeometry, maxCounters int) Report {
	counters := g.Sets()
	if maxCounters > 0 && maxCounters < counters {
		counters = maxCounters
	}
	return Report{
		Geometry: g,
		Overheads: []Overhead{
			{Name: "saturation counters", Bits: counters * sslCounterBits(g.Ways)},
			{Name: "insertion policy bits", Bits: counters},
			{Name: "A counter", Bits: 12},
			{Name: "B counter", Bits: 12},
			{Name: "D counter", Bits: 4},
		},
	}
}

// QoSAVGCCReport costs the §8 QoS-Aware AVGCC: AVGCC plus two 8-bit miss
// counters (2 bytes total per cache), a 4-bit QoSRatio, a sampled-set
// counter (log2(sets) bits), and 3 extra fractional bits per saturation
// counter (4.3 fixed point).
func QoSAVGCCReport(g CacheGeometry) Report {
	r := AVGCCReport(g, 0)
	sets := g.Sets()
	r.Overheads = append(r.Overheads,
		Overhead{Name: "miss counters (MissesWithAVGCC + SampledSetMisses)", Bits: 16},
		Overhead{Name: "QoSRatio (1.3 fixed point)", Bits: 4},
		Overhead{Name: "sampled-set counter", Bits: log2(sets)},
		Overhead{Name: "fractional counter bits (4.3 fixed point)", Bits: 3 * sets},
	)
	return r
}

// DSRReport costs Dynamic Spill-Receive for comparison: one PSEL per cache
// (10 bits, per the paper's configuration).
func DSRReport(g CacheGeometry) Report {
	return Report{
		Geometry:  g,
		Overheads: []Overhead{{Name: "PSEL selector", Bits: 10}},
	}
}

// Design is one costed design of Table 5.
type Design struct {
	Name   string
	Report Report
}

// Designs costs Table 5's four designs at g, in the table's row order.
// maxCounters limits AVGCC's counters (0 = one per set); the QoS variant
// is always costed with one counter per set.
func Designs(g CacheGeometry, maxCounters int) []Design {
	return []Design{
		{"ASCC", ASCCReport(g)},
		{"AVGCC", AVGCCReport(g, maxCounters)},
		{"QoS-AVGCC", QoSAVGCCReport(g)},
		{"DSR", DSRReport(g)},
	}
}

// String renders the report as a Table 5-style summary.
func (r Report) String() string {
	g := r.Geometry
	s := fmt.Sprintf("geometry: %dkB/%d-way/%dB lines, %d sets, %d-bit addresses\n",
		g.SizeBytes/1024, g.Ways, g.LineBytes, g.Sets(), g.AddressBits)
	s += fmt.Sprintf("tag entry: %d bits; tag store: %d bits (%.0f kB); data store: %d kB\n",
		g.TagEntryBits(), g.TagStoreBits(), float64(g.TagStoreBits())/8/1024, g.SizeBytes/1024)
	for _, o := range r.Overheads {
		s += fmt.Sprintf("  + %-48s %8d bits\n", o.Name, o.Bits)
	}
	s += fmt.Sprintf("total overhead: %d bits (%.1f B), %.2f%% of the baseline\n",
		r.TotalOverheadBits(), float64(r.TotalOverheadBits())/8, 100*r.OverheadFraction())
	return s
}
