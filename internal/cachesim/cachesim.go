// Package cachesim implements the set-associative cache model that underlies
// every cache in the simulated CMP: private L1s, private L2s and the shared
// LLC alternative.
//
// The model is policy-free: it maintains tags, MESI-style line states, a true
// LRU recency stack per set, and per-set statistics, and it exposes explicit
// insertion positions (MRU, LRU, LRU-1, ...) so that the cooperative-caching
// policies in internal/policies can implement MRU insertion, BIP and the
// paper's SABIP on top of it. Coherence across caches is orchestrated by
// internal/cmp; a Cache only answers for its own contents.
//
// # Kernel layout
//
// Every experiment funnels through Access/Insert/Invalidate, so the hot
// state is bit-packed (DESIGN.md §2, "kernel layout"):
//
//   - lines: one flat ways-major []Line slab (lines[set*ways+way]) holding
//     each line's tag and its bookkeeping (state, dirty, spilled, prefetch,
//     reuse, owner). The probe compares Line.Tag in place: at the paper's
//     8-way associativity a set's row is 128 bytes, two host cache lines
//     that load in parallel and already hold the state the caller reads
//     next. The slab stays addressable because the coherence engine in
//     internal/cmp mutates flags through the Line pointer API.
//   - meta: one 32-byte record per set holding the packed recency word
//     (nibble k = the way at recency rank k, nibble 0 = MRU — touch, victim
//     selection and position-controlled insertion are constant-time
//     shift/mask operations instead of []int splicing), the valid mask (bit
//     w set iff way w holds data, so a stale tag left in an invalidated way
//     never matches and the invalid-way victim scan reads no Line) and the
//     per-set hit/miss counters. Everything an access mutates sits in half
//     a host cache line; lifetime totals are derived from the per-set
//     counters on demand rather than maintained as separate hot words.
//
// A cache wider than 16 ways is fully associative — one set, the study
// cache of Figure 1 (Config.Validate rejects any other wide geometry) — and
// falls back to a tag index and an intrusive recency list (wide.go): the
// packed word fits at most 16 4-bit ranks. Figure 1 runs that cache on one
// core under plain LRU, so the wide path implements only demand lookups and
// MRU fills of valid lines; the operations of coherence and cooperation
// (Touch, InsertWay, Invalidate, VictimAmong, VictimDead, LRU and LRU-1
// fills) panic there. Both paths are driven against the frozen reference
// implementation in internal/cachesim/refmodel by a differential fuzzer and
// property tests (see diff_test.go): identical operation sequences must
// produce identical evictions, recency stacks and statistics.
package cachesim

import (
	"fmt"
	"math/bits"
)

// LineState is a MESI coherence state.
type LineState uint8

// MESI states. Invalid lines are not present for lookup purposes.
const (
	Invalid LineState = iota
	Shared
	Exclusive
	Modified
)

// String returns the canonical one-letter MESI name.
func (s LineState) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("LineState(%d)", uint8(s))
}

// Line is one cache line's tag and bookkeeping. Tag stores the full block
// address (byte address >> log2(line size)); keeping the whole block address
// as the tag costs a few bits of model memory but removes any chance of
// aliasing between the simulated caches. Tag is the only copy of the line's
// address: every probe compares it in place, and only Insert, InsertWay and
// Invalidate write it.
type Line struct {
	Tag      uint64
	State    LineState
	Dirty    bool
	Spilled  bool // line was placed here by a spill from another cache
	Prefetch bool // line was brought in by a prefetcher and not yet demanded
	Reused   bool // line was hit at least once since it was (re)inserted
	// Owner is the core whose execution allocated the line (for stats).
	// int16 keeps the struct at 16 bytes, so an 8-way row — every tag the
	// probe compares — spans two host cache lines instead of three.
	Owner int16
}

// Valid reports whether the line holds data.
func (l *Line) Valid() bool { return l.State != Invalid }

// InsertPos selects where in the recency stack a newly inserted line lands.
type InsertPos int

const (
	// InsertMRU is traditional LRU-replacement insertion at the top of the
	// recency stack.
	InsertMRU InsertPos = iota
	// InsertLRU inserts at the bottom of the stack (LIP / the common case of
	// BIP).
	InsertLRU
	// InsertLRU1 inserts at the second-to-bottom position; this is the common
	// case of the paper's Spilling-Aware BIP (SABIP), which protects the most
	// recently inserted line from immediate eviction by spills.
	InsertLRU1
)

// String names the insertion position.
func (p InsertPos) String() string {
	switch p {
	case InsertMRU:
		return "MRU"
	case InsertLRU:
		return "LRU"
	case InsertLRU1:
		return "LRU-1"
	}
	return fmt.Sprintf("InsertPos(%d)", int(p))
}

// Config describes a cache's geometry. A fully associative cache is the
// one-set end of the range: Ways == SizeBytes/LineBytes. A cache wider than
// the packed recency word's 16 ways must be fully associative.
type Config struct {
	SizeBytes int // total data capacity
	Ways      int // associativity K
	LineBytes int // line (block) size
}

// L1Ways is the associativity of every L1 (the paper's Table 2): the one
// geometry the burst kernel (ReadBurstAt, ReadAhead) is written for.
const L1Ways = 4

// Validate checks the geometry for consistency.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("cachesim: non-positive geometry %+v", c)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cachesim: line size %d not a power of two", c.LineBytes)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines*c.LineBytes != c.SizeBytes {
		return fmt.Errorf("cachesim: size %dB not a multiple of line size %dB", c.SizeBytes, c.LineBytes)
	}
	if lines%c.Ways != 0 {
		return fmt.Errorf("cachesim: %d lines not divisible by %d ways", lines, c.Ways)
	}
	sets := lines / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cachesim: set count %d not a power of two", sets)
	}
	if c.Ways > PackedMaxWays && sets > 1 {
		return fmt.Errorf("cachesim: %d-way cache with %d sets: a cache wider than %d ways must be fully associative (one set)",
			c.Ways, sets, PackedMaxWays)
	}
	return nil
}

// SampledConfig compacts a geometry to the 1/den set sample of DESIGN.md
// §16: same line size, same associativity, 1/den of the sets — so the line
// slab, recency nibbles, per-set stats and (through NewGroup) the coherence
// directory allocate only the sampled sets. den must be a power of two
// dividing the set count, so a fully associative cache (one set) cannot be
// sampled.
func SampledConfig(c Config, den int) (Config, error) {
	if den <= 1 {
		return c, nil
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	sets := c.SizeBytes / c.LineBytes / c.Ways
	if sets%den != 0 {
		return Config{}, fmt.Errorf("cachesim: sample 1/%d does not divide %d sets", den, sets)
	}
	c.SizeBytes /= den
	return c, nil
}

// SetStats accumulates per-set demand statistics; the harness uses them for
// the paper's Figure 2 favored/constant classification.
type SetStats struct {
	Hits   uint64
	Misses uint64
}

// PackedMaxWays is the widest set the packed recency word can hold: 16
// 4-bit way indices per uint64. A wider cache is fully associative and
// serves one core's demand lookups and MRU fills only (wide.go).
const PackedMaxWays = 16

// Nibble-SWAR constants: the lowest and highest bit of every 4-bit lane.
const (
	nibLo = 0x1111111111111111
	nibHi = 0x8888888888888888
)

// setMeta is everything an access needs to know about one set besides its
// line row, packed into half a host cache line. order nibble k = way at
// recency rank k (rank 0 = MRU); nibbles >= ways stay 0xF so the SWAR
// position search can never alias them with a real way index. valid bit w
// is set iff way w holds data. On the wide (fully associative) path only
// the hit/miss counters are used: recency and validity live in wideState.
type setMeta struct {
	order  uint64
	valid  uint64
	hits   uint64
	misses uint64
}

// Cache is a single set-associative cache.
type Cache struct {
	cfg     Config
	setMask uint64
	ways    int

	// Flat ways-major slab: index set*ways+way.
	lines []Line

	// One metadata word-group per set: packed recency order, valid mask and
	// demand counters.
	meta []setMeta

	// usedMask covers the 4*ways low bits of an order word; unusedMask is
	// its complement (the permanently-0xF nibbles).
	usedMask   uint64
	unusedMask uint64
	fullMask   uint64 // low `ways` bits: the all-valid metadata word

	// wide is the fallback structure for a cache wider than PackedMaxWays
	// (which Validate admits only as one fully associative set): a tag index
	// plus an intrusive recency list, serving the demand lookups and MRU
	// fills of Figure 1's single-core run and nothing else (see wide.go).
	// nil when the packed kernel is active.
	wide *wideState

	// dir, when non-nil, is the owning group's coherence directory; every
	// residency change (insert, overwrite, invalidate) updates the block's
	// holder entry for member dirIdx. See directory.go.
	dir    *Directory
	dirIdx int
}

// New builds a cache from cfg. It panics on invalid geometry (construction
// happens at configuration time; runtime paths never construct caches). Its
// line slab and set metadata come from the pools Release fills (slab.go).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	ways := cfg.Ways
	numSets := cfg.SizeBytes / cfg.LineBytes / ways
	c := &Cache{
		cfg:     cfg,
		setMask: uint64(numSets - 1),
		ways:    ways,
		lines:   linePool.get(numSets * ways),
		meta:    metaPool.get(numSets),
	}
	if ways <= PackedMaxWays {
		c.usedMask = ^uint64(0)
		if ways < PackedMaxWays {
			c.usedMask = uint64(1)<<(4*uint(ways)) - 1
		}
		c.unusedMask = ^c.usedMask
		c.fullMask = uint64(1)<<uint(ways) - 1
		// Identity recency order (rank k = way k), 0xF in unused nibbles.
		o := c.unusedMask
		for w := 0; w < ways; w++ {
			o |= uint64(w) << (4 * uint(w))
		}
		for i := range c.meta {
			c.meta[i].order = o
		}
	} else {
		c.wide = newWideState(ways)
	}
	return c
}

// Release returns the cache's line slab and set metadata to the pools New
// draws from. The cache must not be used afterwards: its slabs are nil, so
// any probe panics. Releasing twice is a no-op.
func (c *Cache) Release() {
	linePool.put(c.lines)
	metaPool.put(c.meta)
	c.lines, c.meta = nil, nil
}

// Config returns the cache's geometry.
func (c *Cache) Config() Config { return c.cfg }

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return len(c.meta) }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// SetIndex maps a block address to its set.
func (c *Cache) SetIndex(block uint64) int { return int(block & c.setMask) }

// Lookup finds block without changing any state. It returns the way index
// and whether the block is present.
func (c *Cache) Lookup(block uint64) (way int, ok bool) {
	w := c.probe(int(block&c.setMask), block)
	return w, w >= 0
}

// b2u converts a bool to 0 or 1. It compiles to a flag-set instruction, so
// the probe's match accumulation stays branch-free.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// matchMask returns a bitmask of the ways in line row t whose tag equals
// block. The 8-way case (the paper's L2 associativity) and the 4-way case
// (the L1) cover nearly every probe the simulator issues; both are unrolled
// into one straight-line expression with no loop-carried dependency.
func matchMask(t []Line, block uint64) uint64 {
	switch len(t) {
	case 8:
		return b2u(t[0].Tag == block) | b2u(t[1].Tag == block)<<1 |
			b2u(t[2].Tag == block)<<2 | b2u(t[3].Tag == block)<<3 |
			b2u(t[4].Tag == block)<<4 | b2u(t[5].Tag == block)<<5 |
			b2u(t[6].Tag == block)<<6 | b2u(t[7].Tag == block)<<7
	case 4:
		return b2u(t[0].Tag == block) | b2u(t[1].Tag == block)<<1 |
			b2u(t[2].Tag == block)<<2 | b2u(t[3].Tag == block)<<3
	}
	var m uint64
	for w := 0; w < len(t); w++ {
		m |= b2u(t[w].Tag == block) << uint(w)
	}
	return m
}

// probe scans one set for block and returns its way, or -1. This is the
// innermost loop of the whole simulator: the packed path touches only the
// set's contiguous line row and its metadata word. The scan is branchless —
// it accumulates a bitmask of matching ways rather than exiting early, so a
// hit costs a fixed number of straight-line ops instead of a data-dependent
// branch misprediction. The mask is ANDed with the valid word: a match on a
// stale tag left by an invalidated way must not count.
func (c *Cache) probe(si int, block uint64) int {
	if c.wide == nil {
		base := si * c.ways
		m := matchMask(c.lines[base:base+c.ways:base+c.ways], block) & c.meta[si].valid
		if m == 0 {
			return -1
		}
		return bits.TrailingZeros64(m)
	}
	if w, ok := c.wide.idx[block]; ok {
		return int(w)
	}
	return -1
}

// Line returns a pointer to the line at (setIdx, way) for inspection or
// state mutation by the coherence engine.
func (c *Cache) Line(setIdx, way int) *Line { return &c.lines[setIdx*c.ways+way] }

// Access performs a demand lookup: on a hit the line is promoted to MRU and
// per-set hit statistics are updated; on a miss only the miss counters move.
// The caller handles the fill via Victim/Insert. The packed fast path is a
// single function: probe and MRU promotion fused, no calls, no allocation.
func (c *Cache) Access(block uint64) (way int, hit bool) {
	si := int(block & c.setMask)
	m := &c.meta[si]
	if c.wide == nil {
		base := si * c.ways
		// The 8- and 4-way row compares are open-coded: matchMask's generic
		// loop keeps it out of the inliner, and this probe is the hottest
		// call site in the simulator — the switch saves a call per access.
		var match uint64
		switch c.ways {
		case 8:
			t := c.lines[base : base+8 : base+8]
			match = b2u(t[0].Tag == block) | b2u(t[1].Tag == block)<<1 |
				b2u(t[2].Tag == block)<<2 | b2u(t[3].Tag == block)<<3 |
				b2u(t[4].Tag == block)<<4 | b2u(t[5].Tag == block)<<5 |
				b2u(t[6].Tag == block)<<6 | b2u(t[7].Tag == block)<<7
		case 4:
			t := c.lines[base : base+4 : base+4]
			match = b2u(t[0].Tag == block) | b2u(t[1].Tag == block)<<1 |
				b2u(t[2].Tag == block)<<2 | b2u(t[3].Tag == block)<<3
		default:
			match = matchMask(c.lines[base:base+c.ways:base+c.ways], block)
		}
		if match &= m.valid; match != 0 {
			w := bits.TrailingZeros64(match)
			m.hits++
			m.order = promote(m.order, w)
			return w, true
		}
	} else if w, ok := c.wide.idx[block]; ok {
		m.hits++
		c.wide.moveToFront(w)
		return int(w), true
	}
	m.misses++
	return -1, false
}

// Touch promotes the line at (setIdx, way) to MRU without counting an access
// (used when coherence operations reuse a resident line).
func (c *Cache) Touch(setIdx, way int) {
	if c.wide != nil {
		wideUnsupported("Touch")
	}
	o := c.meta[setIdx].order
	if nibblePos(o, way) >= c.ways {
		panic(fmt.Sprintf("cachesim: way %d not in recency stack of set %d", way, setIdx))
	}
	c.meta[setIdx].order = promote(o, way)
}

// nibblePos returns the rank whose nibble in order word o equals way, using
// a SWAR zero-nibble search. Positions above the first match may be flagged
// spuriously by the borrow, so the *lowest* flagged nibble is taken; filler
// nibbles (0xF) can never equal a way index (ways <= 15 on this path, or 16
// with no filler). Returns >= 16 when way is absent.
func nibblePos(o uint64, way int) int {
	x := o ^ uint64(way)*nibLo
	z := (x - nibLo) & ^x & nibHi
	return bits.TrailingZeros64(z) >> 2
}

// promote returns order word o with way moved to rank 0 (MRU): the ranks
// below way's shift down one nibble, and the ranks above it (including the
// 0xF filler nibbles) are untouched. way must be in o. Every packed MRU
// promotion (Access, ReadBurst, Touch) goes through here; the function stays
// within the inliner's budget, so each call site compiles to the straight
// SWAR shuffle.
func promote(o uint64, way int) uint64 {
	p := nibblePos(o, way)
	low := uint64(1)<<(4*uint(p)) - 1
	hi := ^uint64(0) << (4 * uint(p+1))
	return o&hi | (o&low)<<4 | uint64(way)
}

// Victim returns the way that would be replaced next in block's set: the
// first invalid way if any, else the LRU way. It does not modify the cache.
func (c *Cache) Victim(block uint64) int {
	return c.VictimInSet(c.SetIndex(block))
}

// VictimInSet is Victim for an explicit set index.
func (c *Cache) VictimInSet(setIdx int) int {
	if ws := c.wide; ws != nil {
		// The next free way, or the LRU way once the set is full.
		if int(ws.nValid) < c.ways {
			return int(ws.nValid)
		}
		return int(ws.tail)
	}
	m := &c.meta[setIdx]
	if inv := ^m.valid & c.fullMask; inv != 0 {
		return bits.TrailingZeros64(inv)
	}
	return int(m.order >> (4 * uint(c.ways-1)) & 0xF)
}

// Insert places a new line for block into its set at the given recency
// position, evicting whatever occupied the victim way. It returns the
// evicted line (State == Invalid if the way was free). The new line's
// State/Dirty/Spilled/Owner are taken from proto. A wide cache takes only
// an InsertMRU fill of a valid proto for a block it does not hold.
//
// The packed full-set case — the steady state once warmup has filled every
// way — is fused: the victim is by definition the LRU nibble, so no victim
// scan runs, and each insert position reduces to a constant nibble shuffle
// of the recency word (MRU: rotate everyone down one rank; LRU: the word is
// already correct; LRU-1: swap the two bottom ranks) instead of the general
// remove-and-reinsert in place.
func (c *Cache) Insert(block uint64, pos InsertPos, proto Line) (evicted Line) {
	if c.wide != nil {
		return c.wideInsert(block, pos, proto)
	}
	si := int(block & c.setMask)
	m := &c.meta[si]
	if inv := ^m.valid & c.fullMask; inv != 0 {
		return c.insertAt(si, bits.TrailingZeros64(inv), block, pos, proto)
	}
	o := m.order
	sh := 4 * uint(c.ways-1)
	w := int(o >> sh & 0xF)
	idx := si*c.ways + w
	evicted = c.lines[idx]
	proto.Tag = block
	c.lines[idx] = proto
	if proto.State == Invalid {
		m.valid &^= 1 << uint(w)
	}
	if c.dir != nil {
		c.dirReplace(evicted, block, proto.State != Invalid)
	}
	switch pos {
	case InsertMRU:
		m.order = (o<<4|uint64(w))&c.usedMask | c.unusedMask
	case InsertLRU:
		// The victim way is already at the LRU rank.
	case InsertLRU1:
		if c.ways >= 2 {
			// Swap the LRU and LRU-1 nibbles.
			swap := (o ^ o<<4) >> sh & 0xF // nonzero bits where they differ
			m.order = o ^ (swap<<sh | swap<<(sh-4))
		}
	default:
		panic(fmt.Sprintf("cachesim: unknown insert position %v", pos))
	}
	return evicted
}

// insertAt overwrites (si, w) with proto for block, refreshes the packed
// valid mask and moves the way to the requested recency position.
func (c *Cache) insertAt(si, w int, block uint64, pos InsertPos, proto Line) (evicted Line) {
	idx := si*c.ways + w
	evicted = c.lines[idx]
	proto.Tag = block
	c.lines[idx] = proto
	if proto.State != Invalid {
		c.meta[si].valid |= 1 << uint(w)
	} else {
		c.meta[si].valid &^= 1 << uint(w)
	}
	if c.dir != nil {
		c.dirReplace(evicted, block, proto.State != Invalid)
	}
	c.place(si, w, pos)
	return evicted
}

// dirReplace is the directory maintenance hook shared by Insert's fused
// full-set path and insertAt: the line previously at the target way (evicted)
// has just been overwritten by block, whose new validity is newValid, and the
// valid mask is already updated. A displaced block only loses its
// holder bit if no other way of this member still holds it (duplicate tags in
// one set arise only under fuzzer-driven op sequences, but must stay exact).
func (c *Cache) dirReplace(evicted Line, block uint64, newValid bool) {
	if evicted.Valid() && (evicted.Tag != block || !newValid) {
		if _, ok := c.Lookup(evicted.Tag); !ok {
			c.dir.remove(evicted.Tag, c.dirIdx)
		}
	}
	if newValid {
		c.dir.add(block, c.dirIdx)
	}
}

// place moves way w to the requested recency position.
func (c *Cache) place(setIdx, w int, pos InsertPos) {
	o := c.meta[setIdx].order
	p := nibblePos(o, w)
	if p >= c.ways {
		panic(fmt.Sprintf("cachesim: way %d missing from stack of set %d", w, setIdx))
	}
	// Remove rank p (ranks above shift down) ...
	low := uint64(1)<<(4*uint(p)) - 1
	rem := o&low | (o>>4)&^low
	// ... and reinsert w at the target rank (ranks at/above shift up).
	t := 0
	switch pos {
	case InsertMRU:
		t = 0
	case InsertLRU:
		t = c.ways - 1
	case InsertLRU1:
		t = c.ways - 2
		if t < 0 {
			t = 0
		}
	default:
		panic(fmt.Sprintf("cachesim: unknown insert position %v", pos))
	}
	lowT := uint64(1)<<(4*uint(t)) - 1
	ins := rem&lowT | (rem&^lowT)<<4 | uint64(w)<<(4*uint(t))
	c.meta[setIdx].order = ins&c.usedMask | c.unusedMask
}

// VictimAmong returns the victim way in setIdx restricted to ways for which
// allowed returns true: the first allowed invalid way, else the least
// recently used allowed way. It returns -1 if no way is allowed. Used by
// region-partitioned policies (ECC).
func (c *Cache) VictimAmong(setIdx int, allowed func(way int) bool) int {
	if c.wide != nil {
		wideUnsupported("VictimAmong")
	}
	for m := ^c.meta[setIdx].valid & c.fullMask; m != 0; m &= m - 1 {
		if w := bits.TrailingZeros64(m); allowed(w) {
			return w
		}
	}
	o := c.meta[setIdx].order
	for i := c.ways - 1; i >= 0; i-- {
		if w := int(o >> (4 * uint(i)) & 0xF); allowed(w) {
			return w
		}
	}
	return -1
}

// VictimDead picks a victim among the set's dead lines: the first invalid
// way, else the least-recently-used way whose line was never reused since
// insertion. If every valid line has been reused, it clears all the set's
// reuse bits (second-chance aging, so lines whose activity has ceased
// become eligible on a later attempt) and reports no victim. This is the
// guest-admission mechanism of the ASCC-family policies: spilled lines may
// only displace a receiver set's demonstrably dead lines.
func (c *Cache) VictimDead(setIdx int) (way int, ok bool) {
	if c.wide != nil {
		wideUnsupported("VictimDead")
	}
	base := setIdx * c.ways
	if inv := ^c.meta[setIdx].valid & c.fullMask; inv != 0 {
		return bits.TrailingZeros64(inv), true
	}
	o := c.meta[setIdx].order
	for i := c.ways - 1; i >= 0; i-- {
		if w := int(o >> (4 * uint(i)) & 0xF); !c.lines[base+w].Reused {
			return w, true
		}
	}
	for w := 0; w < c.ways; w++ {
		c.lines[base+w].Reused = false
	}
	return -1, false
}

// InsertWay places a new line for block into an explicit way of its set at
// the given recency position, returning the evicted line. The caller is
// responsible for choosing a way in block's set (e.g. via VictimAmong).
func (c *Cache) InsertWay(block uint64, way int, pos InsertPos, proto Line) (evicted Line) {
	if c.wide != nil {
		wideUnsupported("InsertWay")
	}
	return c.insertAt(int(block&c.setMask), way, block, pos, proto)
}

// Invalidate removes block from the cache if present, returning the line as
// it was (for writeback decisions). The way's stack slot moves to LRU so it
// is the immediate victim.
func (c *Cache) Invalidate(block uint64) (Line, bool) {
	if c.wide != nil {
		wideUnsupported("Invalidate")
	}
	si := int(block & c.setMask)
	w := c.probe(si, block)
	if w < 0 {
		return Line{}, false
	}
	idx := si*c.ways + w
	old := c.lines[idx]
	c.lines[idx] = Line{}
	c.meta[si].valid &^= 1 << uint(w)
	if c.dir != nil {
		if _, ok := c.Lookup(block); !ok {
			c.dir.remove(block, c.dirIdx)
		}
	}
	c.place(si, w, InsertLRU)
	return old, true
}

// RecencyStack returns a copy of the set's recency stack, MRU first.
// Intended for tests and debugging; stats-heavy loops should reuse a buffer
// via AppendRecencyStack instead.
func (c *Cache) RecencyStack(setIdx int) []int {
	return c.AppendRecencyStack(setIdx, make([]int, 0, c.ways))
}

// AppendRecencyStack appends the set's recency order (MRU first) to buf and
// returns the extended slice. It performs no allocation when buf has
// capacity for Ways() more entries, so per-set scans can reuse one buffer:
//
//	buf := make([]int, 0, c.Ways())
//	for s := 0; s < c.NumSets(); s++ {
//		buf = c.AppendRecencyStack(s, buf[:0])
//		...
//	}
func (c *Cache) AppendRecencyStack(setIdx int, buf []int) []int {
	if ws := c.wide; ws != nil {
		for w := ws.head; w >= 0; w = ws.next[w] {
			buf = append(buf, int(w))
		}
		return buf
	}
	o := c.meta[setIdx].order
	for i := 0; i < c.ways; i++ {
		buf = append(buf, int(o>>(4*uint(i))&0xF))
	}
	return buf
}

// SetStatsFor returns the accumulated stats for one set.
func (c *Cache) SetStatsFor(setIdx int) SetStats {
	m := &c.meta[setIdx]
	return SetStats{Hits: m.hits, Misses: m.misses}
}

// Totals returns lifetime accesses, hits and misses, summed over the per-set
// counts. The hot path maintains only the per-set counters; this sum is
// paid by the (cold) caller instead.
func (c *Cache) Totals() (accesses, hits, misses uint64) {
	for i := range c.meta {
		m := &c.meta[i]
		accesses += m.hits + m.misses
		misses += m.misses
	}
	return accesses, accesses - misses, misses
}

// ValidLines counts valid lines in the whole cache (tests / occupancy
// metrics).
func (c *Cache) ValidLines() int {
	n := 0
	for si := 0; si < c.NumSets(); si++ {
		base := si * c.ways
		for w := 0; w < c.ways; w++ {
			if c.lines[base+w].Valid() {
				n++
			}
		}
	}
	return n
}

// ForEachLine calls fn for every valid line. Iteration order is
// deterministic (set-major, then way).
func (c *Cache) ForEachLine(fn func(setIdx, way int, l *Line)) {
	for si := 0; si < c.NumSets(); si++ {
		base := si * c.ways
		for w := 0; w < c.ways; w++ {
			if c.lines[base+w].Valid() {
				fn(si, w, &c.lines[base+w])
			}
		}
	}
}
