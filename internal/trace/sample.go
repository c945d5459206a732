package trace

// Set-sampled reference streams (DESIGN.md §16).
//
// ASCC is set-granular by construction: every policy decision is trained by
// and applied to individual L2 sets, and the DSR/SDM machinery derives its
// global signals (PSELs, spill/receive roles) from a fixed arithmetic
// pattern of leader sets. A SampleSpec picks a deterministic 1/Den subset of
// L2 set indices — always containing those leaders — and filters a reference
// stream down to the accesses that can ever touch them, accumulating the
// skipped references' instruction gaps into the survivors so instruction
// counts (and therefore the BaseCPI share of every core's clock) are exactly
// preserved.
//
// The subset is closed under everything the simulator does with an address:
//
//   - Residue granularity. The sample is a set of residues mod Granule,
//     where Granule is the *L1* set count. Since the L1 and L2 set counts
//     are both powers of two with l1Sets | l2Sets, a block's L1 set index
//     (block mod l1Sets) determines membership, and an L2 set s is sampled
//     iff s mod Granule is a chosen residue. A skipped reference therefore
//     cannot touch a sampled block's L1 set either: the two levels filter
//     together, which is what makes single-core sampled state *exactly* the
//     full run's state restricted to the sampled sets (cmp's
//     TestSampleTrueRestriction pins this).
//   - Cross-core consistency. The spec is a pure function of the geometry,
//     so every core filters identically: coherence, spilling, swapping and
//     the directory only ever relate same-index sets across caches, and all
//     of those indices are sampled or skipped together.
//   - Leader inclusion. The DSR/SDM monitor sets (classes 0..3 mod the SDM
//     stride) are chosen first, spill/receive monitors before the DIP
//     monitors, so the policies' global training inputs survive sampling at
//     any denominator the residue granule admits.
//
// RewriteBlock maps a surviving block address onto the compact geometry
// (l2Sets/Den sets) by replacing its residue with the residue's rank: an
// injective map, so tag equality, coherence holder masks and L1 indices are
// all preserved. View applies filter+merge+rewrite (the compact-machine
// stream); FilterView applies filter+merge only (the same stream at full
// addresses, the reference arm of FuzzSampleEquivalence).

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// SampleSpec describes one deterministic 1/Den set sample of an L1+L2
// geometry. Build with NewSampleSpec; the zero value is not usable.
type SampleSpec struct {
	// Den is the sampling denominator: 1/Den of the residues (and therefore
	// of the L2 sets) survive.
	Den int
	// Granule is the residue granularity — the L1 set count.
	Granule int
	// Sets is the full L2 set count.
	Sets int
	// LineBytes is the cache line size (addresses below it pass through
	// rewriting untouched).
	LineBytes int
	// Residues are the chosen residues mod Granule, sorted ascending;
	// len(Residues) == Granule/Den. Residues[k] is the original L1 set
	// index of compact L1 set k.
	Residues []int

	rank      []int16 // residue -> rank in Residues, -1 when filtered out
	lineShift uint
	gShift    uint // log2(Granule)
	kShift    uint // log2(len(Residues))
}

// NewSampleSpec derives the deterministic sample for a geometry.
// leaderStride is the SDM leader stride of the policies that will run on the
// sampled machine (internal/policies: max(l2Sets/SDMSets, 4)); when it tiles
// the granule, monitor classes 0..3 are selected first so DSR/SDM training
// is closed under the sample. A stride that does not tile the granule (tiny
// test geometries) degrades leader inclusion to best effort — the sampled
// machine is still exact against a full machine fed the same filtered
// stream, which is the contract everything downstream verifies.
func NewSampleSpec(l2Sets, l1Sets, lineBytes, den, leaderStride int) (*SampleSpec, error) {
	switch {
	case den < 2:
		return nil, fmt.Errorf("trace: sample denominator %d < 2", den)
	case l1Sets < 1 || l1Sets&(l1Sets-1) != 0:
		return nil, fmt.Errorf("trace: L1 set count %d not a positive power of two", l1Sets)
	case l2Sets < l1Sets || l2Sets&(l2Sets-1) != 0 || l2Sets%l1Sets != 0:
		return nil, fmt.Errorf("trace: L2 set count %d not a power-of-two multiple of the %d L1 sets", l2Sets, l1Sets)
	case l1Sets%den != 0:
		return nil, fmt.Errorf("trace: sample 1/%d does not divide the %d-set residue granule (use a power of two <= the L1 set count)", den, l1Sets)
	case lineBytes < 1 || lineBytes&(lineBytes-1) != 0:
		return nil, fmt.Errorf("trace: line size %dB not a power of two", lineBytes)
	}
	g := l1Sets
	k := g / den
	used := make([]bool, g)
	chosen := make([]int, 0, k)
	add := func(r int) {
		if len(chosen) < k && !used[r] {
			used[r] = true
			chosen = append(chosen, r)
		}
	}
	if leaderStride > 0 && g%leaderStride == 0 {
		// Monitor classes in priority order: the spill/receive SDMs (set %
		// stride == 0, 1) train the cooperation PSEL, the DIP SDMs (2, 3)
		// the insertion PSEL. Copy-major within each pair, so a tiny sample
		// holds one of each class before doubling up.
		copies := g / leaderStride
		nclass := leaderStride
		if nclass > 4 {
			nclass = 4
		}
		for _, span := range [2][2]int{{0, 2}, {2, 4}} {
			for copy := 0; copy < copies; copy++ {
				for cl := span[0]; cl < span[1] && cl < nclass; cl++ {
					add(copy*leaderStride + cl)
				}
			}
		}
	}
	// Fill the remainder evenly across the granule (follower-set coverage).
	if need := k - len(chosen); need > 0 {
		for i := 0; i < need; i++ {
			target := i * g / need
			for j := 0; j < g; j++ {
				if r := (target + j) % g; !used[r] {
					add(r)
					break
				}
			}
		}
	}
	// Ascending residues make rank order-preserving, so the compact set
	// index is monotone in the original one within each granule copy.
	for i := 1; i < len(chosen); i++ {
		for j := i; j > 0 && chosen[j-1] > chosen[j]; j-- {
			chosen[j-1], chosen[j] = chosen[j], chosen[j-1]
		}
	}
	rank := make([]int16, g)
	for i := range rank {
		rank[i] = -1
	}
	for i, r := range chosen {
		rank[r] = int16(i)
	}
	s := &SampleSpec{
		Den:       den,
		Granule:   g,
		Sets:      l2Sets,
		LineBytes: lineBytes,
		Residues:  chosen,
		rank:      rank,
	}
	s.lineShift = log2u(lineBytes)
	s.gShift = log2u(g)
	s.kShift = log2u(k)
	return s, nil
}

// log2u returns log2 of a power of two.
func log2u(n int) uint {
	var s uint
	for 1<<s != n {
		s++
	}
	return s
}

// CompactSets returns the sampled machine's L2 set count, Sets/Den.
func (s *SampleSpec) CompactSets() int { return s.Sets / s.Den }

// KeepBlock reports whether a block address maps to a sampled set.
func (s *SampleSpec) KeepBlock(block uint64) bool {
	return s.rank[block&uint64(s.Granule-1)] >= 0
}

// Keep reports whether a byte address maps to a sampled set.
func (s *SampleSpec) Keep(addr uint64) bool { return s.KeepBlock(addr >> s.lineShift) }

// RewriteBlock maps a kept block address onto the compact geometry: the
// residue field is replaced by its rank among the chosen residues and the
// upper bits close over it. Injective over kept blocks, so tag equality is
// preserved; the compact L1 set index is the residue's rank and the compact
// L2 set index is OrigSet's inverse. Must only be called on kept blocks.
//
// Since Den = Granule/len(Residues) = Sets/CompactSets, dropping the
// residue field and closing up by log2(Den) bits carries the granule copy
// index and the tag bits above the set index together, so the rewrite is
// one shift pair plus the rank.
func (s *SampleSpec) RewriteBlock(block uint64) uint64 {
	return (block>>s.gShift)<<s.kShift | uint64(s.rank[block&uint64(s.Granule-1)])
}

// UnrewriteBlock inverts RewriteBlock (differential tests translate compact
// tags back for comparison against a full-geometry machine).
func (s *SampleSpec) UnrewriteBlock(block uint64) uint64 {
	return (block>>s.kShift)<<s.gShift | uint64(s.Residues[block&uint64(len(s.Residues)-1)])
}

// RewriteAddr is RewriteBlock over a byte address, preserving sub-line bits.
func (s *SampleSpec) RewriteAddr(addr uint64) uint64 {
	line := addr & uint64(s.LineBytes-1)
	return s.RewriteBlock(addr>>s.lineShift)<<s.lineShift | line
}

// OrigSet returns the full-geometry L2 set index that compact set cs
// simulates.
func (s *SampleSpec) OrigSet(cs int) int {
	k := len(s.Residues)
	return (cs>>s.kShift)<<s.gShift | s.Residues[cs&(k-1)]
}

// OrigL1Set returns the full-geometry L1 set index that compact L1 set cs
// simulates (the cs-th chosen residue).
func (s *SampleSpec) OrigL1Set(cs int) int { return s.Residues[cs] }

// String renders the spec compactly and uniquely — sub-arena cache/store
// keys append it to the parent stream key.
func (s *SampleSpec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "1of%d.g%d.s%d.l%d.r", s.Den, s.Granule, s.Sets, s.LineBytes)
	for i, r := range s.Residues {
		if i > 0 {
			b.WriteByte('-')
		}
		b.WriteString(strconv.Itoa(r))
	}
	return b.String()
}

// ParseSampleRatio parses the CLI sampling grammar: "off" (or "") is full
// fidelity (0), "1/N" samples one set in N. N must be at least 2.
func ParseSampleRatio(v string) (int, error) {
	if v == "" || v == "off" {
		return 0, nil
	}
	num, den, ok := strings.Cut(v, "/")
	if !ok || num != "1" {
		return 0, fmt.Errorf("trace: sample ratio %q: want \"1/N\" or \"off\"", v)
	}
	d, err := strconv.Atoi(den)
	if err != nil || d < 2 {
		return 0, fmt.Errorf("trace: sample ratio %q: denominator must be an integer >= 2", v)
	}
	return d, nil
}

// View wraps src into the compact-machine stream: references to unsampled
// sets are dropped with their instruction gaps folded into the next
// survivor, and surviving addresses are rewritten onto the compact geometry.
// The view owns src (like NewArena); it implements Generator, so it can be
// replayed directly or packed into a cached sub-arena.
func (s *SampleSpec) View(src Generator) Generator {
	return &sampledView{spec: s, src: src, rewrite: true, buf: make([]Ref, arenaGenBatch)}
}

// FilterView is View without the address rewrite: the identical reference
// subsequence at full addresses. Feeding it to a full-geometry machine
// yields the exact per-set state the compact machine computes (the two-arm
// contract FuzzSampleEquivalence holds together).
func (s *SampleSpec) FilterView(src Generator) Generator {
	return &sampledView{spec: s, src: src, buf: make([]Ref, arenaGenBatch)}
}

// sampledView streams the kept subsequence of src. Skipped references
// contribute their gap plus themselves (Gap+1 instructions) to a pending
// count folded into the next kept reference's gap, so cumulative instruction
// totals at every kept reference are exactly the full stream's. The pending
// count saturates at the Ref.Gap field width — both the compact and
// full-address views clamp identically, so the arms never diverge.
type sampledView struct {
	spec    *SampleSpec
	src     Generator
	rewrite bool
	buf     []Ref
	pos, n  int
	pending int64
}

// Name implements Generator (the stream name is the source's: sampling is
// keyed by the spec elsewhere).
func (v *sampledView) Name() string { return v.src.Name() }

// Next implements Generator.
func (v *sampledView) Next() Ref {
	var one [1]Ref
	v.NextBatch(one[:])
	return one[0]
}

// NextBatch implements Generator. The source must eventually produce kept
// references (every workload model covers all residues within a few hundred
// references); a stream that never touches the sample would spin. The loop
// keeps the cursor, the pending gap, the rank table and the line shift in
// locals and writes the view's state back once per call; only kept
// references (1/Den of them) read the spec again, to rewrite.
func (v *sampledView) NextBatch(out []Ref) {
	spec := v.spec
	rank := spec.rank
	gMask := uint64(spec.Granule - 1)
	lineShift := spec.lineShift & 63 // < 64: no oversized-shift guard
	rewrite := v.rewrite
	buf := v.buf
	pos, n := v.pos, v.n
	pending := v.pending
	i := 0
	for i < len(out) {
		if pos == n {
			v.src.NextBatch(buf)
			pos, n = 0, len(buf)
		}
		for pos < n {
			ref := buf[pos]
			pos++
			if rank[(ref.Addr>>lineShift)&gMask] < 0 {
				pending += int64(ref.Gap) + 1
				continue
			}
			g := pending + int64(ref.Gap)
			if g > math.MaxInt32 {
				g = math.MaxInt32
			}
			pending = 0
			if rewrite {
				ref.Addr = spec.RewriteAddr(ref.Addr)
			}
			ref.Gap = int32(g)
			out[i] = ref
			if i++; i == len(out) {
				break
			}
		}
	}
	v.pos, v.n, v.pending = pos, n, pending
}
