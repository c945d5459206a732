// Package workload provides the synthetic stand-ins for the paper's
// benchmarks: the 13 SPEC CPU2006 models of Table 3, the multiprogrammed
// mixes of the evaluation, and the SPLASH2/PARSEC-like multithreaded
// workloads of the sensitivity study (§6.3).
//
// Each SPEC model is a trace.Composite mixing streaming, cyclic-loop,
// random-walk, Zipf-region and hot-line components whose footprints are
// chosen against the baseline 1 MB L2 so that the model lands near the
// benchmark's Table 3 L2 MPKI and — via the BaseCPI/Overlap timing
// parameters — its CPI. What matters for reproducing the paper's *shape* is
// each benchmark's category: streaming (insensitive to extra ways),
// small-working-set (cache giver), and capacity-hungry (cache taker);
// DESIGN.md §3 documents this substitution.
package workload

import (
	"fmt"
	"sort"
	"strings"

	"ascc/internal/rng"
	"ascc/internal/trace"
)

// KB and MB are byte-size helpers for footprint literals.
const (
	KB = 1024
	MB = 1024 * KB
)

// Category classifies a benchmark's relation to LLC capacity (Fig. 1's
// upper/lower rows).
type Category int

const (
	// Streaming: huge footprint, no reuse; insensitive to capacity; can give
	// space away (upper row of Fig. 1: milc, libquantum, lbm, sphinx3).
	Streaming Category = iota
	// SmallWS: working set fits comfortably; a capacity giver (namd, gobmk,
	// sjeng).
	SmallWS
	// CapacityHungry: benefits from extra ways/capacity (lower row: bzip2,
	// soplex, hmmer, omnetpp, astar, mcf).
	CapacityHungry
)

// String names the category.
func (c Category) String() string {
	switch c {
	case Streaming:
		return "streaming"
	case SmallWS:
		return "small-ws"
	case CapacityHungry:
		return "capacity-hungry"
	}
	return fmt.Sprintf("Category(%d)", int(c))
}

// Profile describes one synthetic SPEC CPU2006 benchmark model.
type Profile struct {
	ID       int    // SPEC number, e.g. 401
	Name     string // e.g. "bzip2"
	Category Category

	TableMPKI float64 // paper Table 3 L2 MPKI (calibration target)
	TableCPI  float64 // paper Table 3 CPI (calibration target)

	// Timing-model parameters (see internal/cmp): CPI contribution of
	// non-memory work, and the fraction of each memory-stall latency that
	// is NOT hidden by out-of-order overlap/MLP.
	BaseCPI float64
	Overlap float64

	// RefsPerKInstr is the L1 reference rate.
	RefsPerKInstr float64

	build func(seed, base uint64) []trace.Mixed
}

// NewGenerator builds the benchmark's reference stream. base offsets the
// address space (each core of a multiprogrammed mix gets a disjoint region);
// seed fixes the random sequence; scale is the geometry scale divisor (see
// ScaleComponents).
func (p Profile) NewGenerator(seed, base uint64, scale int) trace.Generator {
	comps := p.build(seed, base)
	ScaleComponents(comps, scale)
	return trace.NewComposite(p.Name, seed, p.RefsPerKInstr, comps)
}

// ScaleComponents divides every component's footprint (and hot-line pool) by
// the geometry scale divisor. Experiments shrink caches and footprints by
// the same divisor (DESIGN.md §5), preserving every footprint-to-capacity
// ratio while compressing reuse-cycle times so that runs of a few million
// instructions exhibit the reuse behaviour of the paper's 10-billion-
// instruction runs. Scale 1 reproduces the paper's absolute sizes.
func ScaleComponents(comps []trace.Mixed, scale int) {
	if scale < 1 {
		panic(fmt.Sprintf("workload: scale %d < 1", scale))
	}
	if scale == 1 {
		return
	}
	div := uint64(scale)
	scaleFootprint := func(f uint64) uint64 {
		f /= div
		// Keep at least a few lines so degenerate components still work.
		if f < 1*KB {
			f = 1 * KB
		}
		return f
	}
	for i := range comps {
		switch c := comps[i].Comp.(type) {
		case *trace.SeqStream:
			c.Footprint = scaleFootprint(c.Footprint)
		case *trace.Loop:
			c.Footprint = scaleFootprint(c.Footprint)
		case *trace.RandomWalk:
			c.Footprint = scaleFootprint(c.Footprint)
		case *trace.ZipfRegions:
			c.Footprint = scaleFootprint(c.Footprint)
			// Keep regions at least a line-burst long.
			for c.NumRegions > 1 && c.Footprint/uint64(c.NumRegions) < 512 {
				c.NumRegions /= 2
			}
		case *trace.ColumnWalk:
			c.RowStride /= div
			if c.RowStride < 32 {
				c.RowStride = 32
			}
			c.Cols /= scale
			if c.Cols < 1 {
				c.Cols = 1
			}
			c.SetOffset /= scale
		case *trace.HotLines:
			c.Lines /= scale
			if c.Lines < 32 {
				c.Lines = 32
			}
		default:
			panic(fmt.Sprintf("workload: unscalable component %T", c))
		}
	}
}

// setSpan is the baseline L2's set span at paper scale (4096 sets x 32 B):
// a ColumnWalk with this row stride lands each column in a single set.
const setSpan = 128 * KB

// profiles lists the 13 benchmarks of Table 3. Component rates below are
// per-kinstr shares of RefsPerKInstr (weight = share/rate); footprints are
// sized against the 1 MB/8-way baseline L2 and 32 kB L1.
var profiles = []Profile{
	{
		ID: 401, Name: "bzip2", Category: CapacityHungry,
		TableMPKI: 2.7, TableCPI: 1.8,
		BaseCPI: 0.80, Overlap: 0.42, RefsPerKInstr: 140,
		build: func(seed, base uint64) []trace.Mixed {
			return []trace.Mixed{
				// The compressor's sliding window: a loop slightly over LLC
				// capacity — thrashes at 1 MB, fits with spilled/extra ways.
				{Comp: &trace.Loop{Base: base, Footprint: 1280 * KB, Stride: 32}, Weight: 1.3, WriteFrac: 0.25},
				// Suffix-array walks: strided, column-like per-set bursts.
				{Comp: &trace.ColumnWalk{Base: base + 8*MB, Rows: 12, Cols: 1024, SetOffset: 3072, RowStride: setSpan}, Weight: 1.3, WriteFrac: 0.25},
				// Mid-size structures with skewed popularity.
				{Comp: &trace.ZipfRegions{Base: base + 16*MB, Footprint: 96 * KB, NumRegions: 16, Skew: 0.9, BurstLen: 8}, Weight: 100, WriteFrac: 0.15},
				// L1-resident hot data.
				{Comp: &trace.HotLines{Base: base + 32*MB, Lines: 256}, Weight: 37.4, WriteFrac: 0.3},
			}
		},
	},
	{
		ID: 429, Name: "mcf", Category: CapacityHungry,
		TableMPKI: 40.1, TableCPI: 10.4,
		BaseCPI: 1.0, Overlap: 0.48, RefsPerKInstr: 250,
		build: func(seed, base uint64) []trace.Mixed {
			return []trace.Mixed{
				// Pointer chasing over a heap far beyond any LLC.
				{Comp: &trace.RandomWalk{Base: base, Footprint: 24 * MB}, Weight: 33, WriteFrac: 0.1},
				// Node clusters with some locality — the part extra capacity helps.
				{Comp: &trace.ZipfRegions{Base: base + 32*MB, Footprint: 2 * MB, NumRegions: 64, Skew: 1.4, BurstLen: 2}, Weight: 60, WriteFrac: 0.1},
				{Comp: &trace.HotLines{Base: base + 48*MB, Lines: 512}, Weight: 157, WriteFrac: 0.2},
			}
		},
	},
	{
		ID: 433, Name: "milc", Category: Streaming,
		TableMPKI: 33.1, TableCPI: 4.28,
		BaseCPI: 0.70, Overlap: 0.23, RefsPerKInstr: 180,
		build: func(seed, base uint64) []trace.Mixed {
			return []trace.Mixed{
				// Lattice sweep: pure streaming.
				{Comp: &trace.SeqStream{Base: base, Footprint: 32 * MB, Stride: 32}, Weight: 33, WriteFrac: 0.35},
				{Comp: &trace.HotLines{Base: base + 64*MB, Lines: 256}, Weight: 100, WriteFrac: 0.2},
				{Comp: &trace.Loop{Base: base + 80*MB, Footprint: 24 * KB, Stride: 32}, Weight: 47},
			}
		},
	},
	{
		ID: 444, Name: "namd", Category: SmallWS,
		TableMPKI: 1.0, TableCPI: 0.76,
		BaseCPI: 0.55, Overlap: 0.23, RefsPerKInstr: 150,
		build: func(seed, base uint64) []trace.Mixed {
			return []trace.Mixed{
				// Particle arrays: fit easily in the L2 (a quarter-MB).
				{Comp: &trace.Loop{Base: base, Footprint: 192 * KB, Stride: 32}, Weight: 50, WriteFrac: 0.2},
				{Comp: &trace.HotLines{Base: base + 8*MB, Lines: 512}, Weight: 99, WriteFrac: 0.25},
				// Rare far misses.
				{Comp: &trace.RandomWalk{Base: base + 16*MB, Footprint: 16 * MB}, Weight: 1},
			}
		},
	},
	{
		ID: 445, Name: "gobmk", Category: SmallWS,
		TableMPKI: 1.1, TableCPI: 1.34,
		BaseCPI: 1.0, Overlap: 0.39, RefsPerKInstr: 130,
		build: func(seed, base uint64) []trace.Mixed {
			return []trace.Mixed{
				{Comp: &trace.ZipfRegions{Base: base, Footprint: 512 * KB, NumRegions: 32, Skew: 0.8, BurstLen: 4}, Weight: 40, WriteFrac: 0.2},
				{Comp: &trace.RandomWalk{Base: base + 16*MB, Footprint: 8 * MB}, Weight: 1.2},
				{Comp: &trace.HotLines{Base: base + 32*MB, Lines: 512}, Weight: 88.8, WriteFrac: 0.25},
			}
		},
	},
	{
		ID: 450, Name: "soplex", Category: CapacityHungry,
		TableMPKI: 3.6, TableCPI: 1.0,
		BaseCPI: 0.50, Overlap: 0.22, RefsPerKInstr: 160,
		build: func(seed, base uint64) []trace.Mixed {
			return []trace.Mixed{
				// Simplex tableau: column-major sweeps — one set at a time
				// takes a burst of misses while its neighbours idle.
				{Comp: &trace.ColumnWalk{Base: base, Rows: 12, Cols: 1024, SetOffset: 3072, RowStride: setSpan}, Weight: 3.0, WriteFrac: 0.2},
				{Comp: &trace.ZipfRegions{Base: base + 16*MB, Footprint: 96 * KB, NumRegions: 24, Skew: 1.0, BurstLen: 8}, Weight: 60, WriteFrac: 0.15},
				{Comp: &trace.RandomWalk{Base: base + 32*MB, Footprint: 8 * MB}, Weight: 0.6},
				{Comp: &trace.HotLines{Base: base + 48*MB, Lines: 512}, Weight: 96, WriteFrac: 0.2},
			}
		},
	},
	{
		ID: 456, Name: "hmmer", Category: CapacityHungry,
		TableMPKI: 3.4, TableCPI: 1.3,
		BaseCPI: 0.75, Overlap: 0.28, RefsPerKInstr: 170,
		build: func(seed, base uint64) []trace.Mixed {
			return []trace.Mixed{
				// Profile-HMM dynamic-programming matrix, walked column-wise:
				// per-set miss bursts over a footprint slightly above 1 MB.
				{Comp: &trace.ColumnWalk{Base: base, Rows: 12, Cols: 1024, SetOffset: 3072, RowStride: setSpan}, Weight: 3.4, WriteFrac: 0.3},
				{Comp: &trace.Loop{Base: base + 16*MB, Footprint: 96 * KB, Stride: 32}, Weight: 47, WriteFrac: 0.2},
				{Comp: &trace.HotLines{Base: base + 32*MB, Lines: 1024}, Weight: 120, WriteFrac: 0.25},
			}
		},
	},
	{
		ID: 458, Name: "sjeng", Category: SmallWS,
		TableMPKI: 1.36, TableCPI: 1.6,
		BaseCPI: 1.1, Overlap: 0.55, RefsPerKInstr: 120,
		build: func(seed, base uint64) []trace.Mixed {
			return []trace.Mixed{
				// Transposition table: skewed, mostly resident.
				{Comp: &trace.ZipfRegions{Base: base, Footprint: 640 * KB, NumRegions: 32, Skew: 0.7, BurstLen: 2}, Weight: 30, WriteFrac: 0.25},
				{Comp: &trace.RandomWalk{Base: base + 16*MB, Footprint: 12 * MB}, Weight: 1.2},
				{Comp: &trace.HotLines{Base: base + 32*MB, Lines: 512}, Weight: 89, WriteFrac: 0.2},
			}
		},
	},
	{
		ID: 462, Name: "libquantum", Category: Streaming,
		TableMPKI: 22.4, TableCPI: 4.3,
		BaseCPI: 0.60, Overlap: 0.35, RefsPerKInstr: 160,
		build: func(seed, base uint64) []trace.Mixed {
			return []trace.Mixed{
				// The quantum register vector: one long sequential stream.
				{Comp: &trace.SeqStream{Base: base, Footprint: 32 * MB, Stride: 32}, Weight: 22.5, WriteFrac: 0.3},
				{Comp: &trace.Loop{Base: base + 64*MB, Footprint: 16 * KB, Stride: 32}, Weight: 137.5, WriteFrac: 0.1},
			}
		},
	},
	{
		ID: 470, Name: "lbm", Category: Streaming,
		TableMPKI: 29.0, TableCPI: 2.0,
		BaseCPI: 0.55, Overlap: 0.105, RefsPerKInstr: 190,
		build: func(seed, base uint64) []trace.Mixed {
			return []trace.Mixed{
				// Two interleaved lattice streams (read old grid, write new).
				{Comp: &trace.SeqStream{Base: base, Footprint: 32 * MB, Stride: 32}, Weight: 15, WriteFrac: 0.1},
				{Comp: &trace.SeqStream{Base: base + 48*MB, Footprint: 32 * MB, Stride: 32}, Weight: 14, WriteFrac: 0.8},
				{Comp: &trace.HotLines{Base: base + 96*MB, Lines: 256}, Weight: 161, WriteFrac: 0.2},
			}
		},
	},
	{
		ID: 471, Name: "omnetpp", Category: CapacityHungry,
		TableMPKI: 15.2, TableCPI: 2.0,
		BaseCPI: 0.65, Overlap: 0.185, RefsPerKInstr: 170,
		build: func(seed, base uint64) []trace.Mixed {
			return []trace.Mixed{
				// Event-queue heap: skewed access over ~3 MB — benefits
				// gradually from every extra way.
				{Comp: &trace.ZipfRegions{Base: base, Footprint: 3 * MB, NumRegions: 96, Skew: 1.0, BurstLen: 2}, Weight: 41, WriteFrac: 0.25},
				{Comp: &trace.RandomWalk{Base: base + 16*MB, Footprint: 8 * MB}, Weight: 2},
				// Calendar-queue buckets: bucket chains walk single sets.
				{Comp: &trace.ColumnWalk{Base: base + 64*MB, Rows: 12, Cols: 1024, SetOffset: 3072, RowStride: setSpan}, Weight: 2, WriteFrac: 0.25},
				{Comp: &trace.HotLines{Base: base + 32*MB, Lines: 512}, Weight: 121, WriteFrac: 0.2},
			}
		},
	},
	{
		ID: 473, Name: "astar", Category: CapacityHungry,
		TableMPKI: 7.3, TableCPI: 3.5,
		BaseCPI: 0.90, Overlap: 0.70, RefsPerKInstr: 150,
		build: func(seed, base uint64) []trace.Mixed {
			return []trace.Mixed{
				// Graph nodes with regional popularity over ~2 MB.
				{Comp: &trace.ZipfRegions{Base: base, Footprint: 2 * MB, NumRegions: 64, Skew: 0.9, BurstLen: 2}, Weight: 20, WriteFrac: 0.15},
				// Map-grid column scans: per-set miss bursts.
				{Comp: &trace.ColumnWalk{Base: base + 16*MB, Rows: 12, Cols: 1024, SetOffset: 3072, RowStride: setSpan}, Weight: 1.5, WriteFrac: 0.3},
				{Comp: &trace.HotLines{Base: base + 32*MB, Lines: 512}, Weight: 128.5, WriteFrac: 0.2},
			}
		},
	},
	{
		ID: 482, Name: "sphinx3", Category: Streaming,
		TableMPKI: 16.1, TableCPI: 4.37,
		BaseCPI: 0.80, Overlap: 0.47, RefsPerKInstr: 180,
		build: func(seed, base uint64) []trace.Mixed {
			return []trace.Mixed{
				// Acoustic-model scan: streaming over the model file.
				{Comp: &trace.SeqStream{Base: base, Footprint: 8 * MB, Stride: 32}, Weight: 12, WriteFrac: 0.05},
				{Comp: &trace.ZipfRegions{Base: base + 16*MB, Footprint: 640 * KB, NumRegions: 16, Skew: 0.8, BurstLen: 8}, Weight: 60, WriteFrac: 0.1},
				{Comp: &trace.HotLines{Base: base + 32*MB, Lines: 512}, Weight: 106, WriteFrac: 0.15},
			}
		},
	},
}

// Profiles returns the benchmark models, sorted by SPEC number.
func Profiles() []Profile {
	out := make([]Profile, len(profiles))
	copy(out, profiles)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID returns the profile with the given SPEC number.
func ByID(id int) (Profile, error) {
	for _, p := range profiles {
		if p.ID == id {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown benchmark %d", id)
}

// MustByID is ByID for static mix tables; it panics on unknown IDs.
func MustByID(id int) Profile {
	p, err := ByID(id)
	if err != nil {
		panic(err)
	}
	return p
}

// MixName renders a mix as the paper writes it, e.g. "445+401+444+456".
func MixName(ids []int) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprintf("%d", id)
	}
	return strings.Join(parts, "+")
}

// FourAppMixes returns the six 4-application multiprogrammed workloads of
// Table 1 / Figures 4, 5, 8 and 9.
func FourAppMixes() [][]int {
	return [][]int{
		{445, 401, 444, 456},
		{445, 444, 456, 471},
		{433, 462, 450, 401},
		{433, 471, 473, 482},
		{458, 444, 401, 471},
		{458, 444, 471, 462},
	}
}

// TwoAppMixes returns the fourteen 2-application workloads of Figures 7 and
// 10. The paper names only seven of them (in Figures 4, 5 and 10); the
// remaining seven are chosen to cover the same giver/taker/streamer grid —
// see DESIGN.md §4.
func TwoAppMixes() [][]int {
	return [][]int{
		{445, 456}, // giver + mild taker
		{456, 471}, // taker + taker
		{450, 462}, // taker + streamer
		{473, 482}, // taker + streamer
		{458, 471}, // giver + taker
		{462, 471}, // streamer + taker
		{429, 401}, // heavy taker + taker (Fig. 10's degradation case)
		{433, 473}, // streamer + taker
		{470, 444}, // streamer + giver
		{482, 401}, // streamer + taker
		{429, 471}, // heavy taker + taker
		{462, 450}, // streamer + taker
		{433, 444}, // streamer + giver
		{401, 473}, // taker + taker
	}
}

// ExtendMix replicates a mix cyclically to fill cores slots — the scaling
// methodology for core counts beyond the paper's 4/8: a 4-app mix on a
// 16-core machine runs four independent copies of each application, each in
// its own address space (BuildMix derives per-slot seeds and address bases
// from the slot index, so replicas never share a reference stream). When
// cores does not exceed the mix, the mix is returned unchanged.
func ExtendMix(ids []int, cores int) []int {
	if cores <= len(ids) {
		return ids
	}
	out := make([]int, cores)
	for i := range out {
		out[i] = ids[i%len(ids)]
	}
	return out
}

// CoreAddressBase returns the base address of core i's private address
// space. 42-bit addresses; 64 GB spacing keeps all mixes disjoint.
func CoreAddressBase(core int) uint64 { return uint64(core) << 36 }

// BuildMix instantiates generators for a multiprogrammed mix, one per core,
// each in a disjoint address range, with per-core derived seeds. scale is
// the geometry scale divisor (see ScaleComponents).
func BuildMix(ids []int, seed uint64, scale int) ([]trace.Generator, []Profile, error) {
	gens := make([]trace.Generator, len(ids))
	profs := make([]Profile, len(ids))
	for i, id := range ids {
		p, err := ByID(id)
		if err != nil {
			return nil, nil, err
		}
		profs[i] = p
		gens[i] = p.NewGenerator(rng.Mix64(seed+uint64(i)*0x9e37), CoreAddressBase(i), scale)
	}
	return gens, profs, nil
}
