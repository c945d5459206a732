// The ganged tag slab: a CacheGroup lays the tag rows of N same-geometry
// caches out set-interleaved (all members' ways for set i contiguous in
// memory), so cross-cache questions — "who holds block X", "is this the last
// on-chip copy", "invalidate every other copy" — are answered by one fused
// scan of a single contiguous row instead of N independent per-cache probes.
// The coherence engine in internal/cmp snoops every private L2 on every
// local miss, eviction and write upgrade; with the paper's 4 cores x 8 ways
// the whole ganged row is 4 host cache lines walked branch-free, where the
// un-ganged layout touched 4 scattered slabs through 4 probe calls.
package cachesim

import (
	"fmt"
	"math/bits"
)

// CacheGroup gangs n caches of identical geometry into one shared,
// set-interleaved tag/line slab. Each member is a fully functional *Cache —
// every single-cache operation (Access, Insert, Invalidate, ...) works
// unchanged and touches only that member's ways — while the group answers
// cross-member holder queries with a fused scan.
//
// The fused path requires every member row to fit one uint64 match mask
// (n x physical ways <= 64) and the members to use the packed recency
// kernel; other geometries transparently fall back to per-member probes, so
// callers never need to special-case.
type CacheGroup struct {
	members   []*Cache
	pw        int // physical ways per member set
	rowWays   int // n*pw: scanned (real) slab elements per ganged set row
	rowStride int // slab elements between consecutive rows (>= rowWays)
	setMask   uint64
	tags      []uint64
	fused     bool

	// dir, when non-nil, answers every holder-mask question from the
	// set-sharded directory (directory.go) instead of a row scan; the members
	// keep it current through their residency hooks. probes counts coherence
	// queries (holder mask, demand-miss peer scan, invalidate-others)
	// at the same call sites in both modes, so directory and broadcast runs
	// of one workload report identical probe counts.
	dir    *Directory
	probes uint64
}

// groupRowStride pads the slab stride between consecutive ganged rows to an
// odd number of 64-byte host cache lines. The natural stride of the paper's
// geometry (4 cores x 8 ways x 8-byte tags = 256 B) is a power of two, which
// maps every member's per-set row onto a quarter of the host L1's index
// space — the classic conflict-miss pathology. An odd line count makes the
// row start addresses walk every host cache set.
func groupRowStride(rowWays int) int {
	lines := (rowWays + 7) / 8
	if lines%2 == 0 {
		lines++
	}
	return lines * 8
}

// NewGroup builds n ganged caches of identical geometry. It panics on
// invalid geometry or n <= 0 (construction happens at configuration time).
func NewGroup(n int, cfg Config) *CacheGroup {
	if n <= 0 || n > 64 {
		// Holder sets are uint64 bitmasks throughout the coherence engine;
		// past 64 members they would silently truncate.
		panic(fmt.Sprintf("cachesim: group of %d caches (must be 1..64)", n))
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	numSets, pw, enabled := geometry(cfg)
	rowWays := n * pw
	rowStride := groupRowStride(rowWays)
	tags := make([]uint64, numSets*rowStride)
	lines := make([]Line, numSets*rowStride)
	g := &CacheGroup{
		members:   make([]*Cache, n),
		pw:        pw,
		rowWays:   rowWays,
		rowStride: rowStride,
		setMask:   uint64(numSets - 1),
		tags:      tags,
		fused:     rowWays <= 64 && enabled <= packedMaxWays,
	}
	for c := 0; c < n; c++ {
		// Member c's view starts pw elements after member c-1's: with the
		// shared row stride, its (set, way) index lands inside its own pw-wide
		// segment of set's row and never aliases a sibling's.
		g.members[c] = newCache(cfg, rowStride, tags[c*pw:], lines[c*pw:])
	}
	return g
}

// Size returns the number of caches in the group.
func (g *CacheGroup) Size() int { return len(g.members) }

// Cache returns member i.
func (g *CacheGroup) Cache(i int) *Cache { return g.members[i] }

// EnableDirectory switches the group's coherence queries from broadcast row
// scans to the set-sharded directory: existing contents are indexed, and
// from here on every member insert/invalidate keeps the holder entries
// current. Idempotent; answers are bit-identical to broadcast mode.
func (g *CacheGroup) EnableDirectory() {
	if g.dir != nil {
		return
	}
	d := newDirectory(int(g.setMask)+1, g.rowWays)
	for i, c := range g.members {
		c.dir = d
		c.dirIdx = i
		c.ForEachLine(func(_, _ int, l *Line) { d.add(l.Tag, i) })
	}
	g.dir = d
}

// DirectoryEnabled reports whether holder queries are directory-backed.
func (g *CacheGroup) DirectoryEnabled() bool { return g.dir != nil }

// Probes returns the number of coherence queries answered since construction
// (or the last ResetProbes). The counter is maintained at identical call
// sites in directory and broadcast mode.
func (g *CacheGroup) Probes() uint64 { return g.probes }

// ResetProbes zeroes the coherence probe counter.
func (g *CacheGroup) ResetProbes() { g.probes = 0 }

// HolderMask returns a bitmask of the members currently holding block (bit i
// set iff member i has a valid copy). With the directory enabled this is one
// bounded hash lookup in the block's set shard; on the fused broadcast path
// it is one scan of the block's ganged tag row plus a per-member AND against
// the valid words. Stale tags left behind by invalidations can never be
// counted in either mode.
func (g *CacheGroup) HolderMask(block uint64) uint64 {
	g.probes++
	return g.holderMask(block)
}

// holderMask is HolderMask without the probe accounting, for callers that
// already counted the query.
func (g *CacheGroup) holderMask(block uint64) uint64 {
	if g.dir != nil {
		return g.dir.holders(block)
	}
	if !g.fused {
		var m uint64
		for i, c := range g.members {
			if _, ok := c.Lookup(block); ok {
				m |= 1 << uint(i)
			}
		}
		return m
	}
	base := int(block&g.setMask) * g.rowStride
	row := g.tags[base : base+g.rowWays : base+g.rowWays]
	var match uint64
	o := 0
	for ; o+8 <= len(row); o += 8 {
		match |= matchMask(row[o:o+8:o+8], block) << uint(o)
	}
	for ; o < len(row); o++ {
		match |= b2u(row[o] == block) << uint(o)
	}
	if match == 0 {
		return 0
	}
	si := int(block & g.setMask)
	var hold uint64
	for c, pw := 0, g.pw; c < len(g.members); c++ {
		if match>>uint(c*pw)&g.members[c].meta[si].valid != 0 {
			hold |= 1 << uint(c)
		}
	}
	return hold
}

// LastCopy reports whether no member other than except holds block — the
// eviction path's "may this line leave the chip?" test, fused into a single
// row scan.
func (g *CacheGroup) LastCopy(block uint64, except int) bool {
	return g.HolderMask(block)&^(1<<uint(except)) == 0
}

// DemandAccess is member c's demand lookup fused with the miss path's
// coherence probe: it performs exactly c.Access(block) — hit/miss counters
// and the packed MRU touch included — and, on a miss, continues the same
// ganged-row scan across the peer segments, returning the peer holder mask
// and the way of the block inside the lowest-index holder (hway, -1 when no
// peer holds it). On a hit the peer segments are not read (holders and hway
// are 0 and -1): the hit path needs no coherence answer, and keeping it as
// cheap as Access is what lets the hot path use this unconditionally.
//
// For the coherence engine this replaces the Access -> HolderMask -> holder
// Lookup triple of the unbatched miss path with one pass over one row.
func (g *CacheGroup) DemandAccess(c int, block uint64) (way int, hit bool, holders uint64, hway int) {
	cache := g.members[c]
	if g.dir != nil {
		way, hit = cache.Access(block)
		if hit {
			return way, true, 0, -1
		}
		g.probes++
		holders = g.dir.holders(block) &^ (1 << uint(c))
		hway = -1
		if holders != 0 {
			if w, ok := g.members[bits.TrailingZeros64(holders)].Lookup(block); ok {
				hway = w
			}
		}
		return -1, false, holders, hway
	}
	if !g.fused || cache.wide != nil {
		way, hit = cache.Access(block)
		if hit {
			return way, true, 0, -1
		}
		g.probes++
		hway = -1
		for i, m := range g.members {
			if i == c {
				continue
			}
			if w, ok := m.Lookup(block); ok {
				if holders == 0 {
					hway = w
				}
				holders |= 1 << uint(i)
			}
		}
		return -1, false, holders, hway
	}
	si := int(block & g.setMask)
	m := &cache.meta[si]
	base := si * g.rowStride
	lbase := base + c*g.pw
	// Local segment: Access's open-coded packed fast path (cachesim.go).
	var match uint64
	switch cache.ways {
	case 8:
		t := g.tags[lbase : lbase+8 : lbase+8]
		match = b2u(t[0] == block) | b2u(t[1] == block)<<1 |
			b2u(t[2] == block)<<2 | b2u(t[3] == block)<<3 |
			b2u(t[4] == block)<<4 | b2u(t[5] == block)<<5 |
			b2u(t[6] == block)<<6 | b2u(t[7] == block)<<7
	case 4:
		t := g.tags[lbase : lbase+4 : lbase+4]
		match = b2u(t[0] == block) | b2u(t[1] == block)<<1 |
			b2u(t[2] == block)<<2 | b2u(t[3] == block)<<3
	default:
		match = matchMask(g.tags[lbase:lbase+cache.ways:lbase+cache.ways], block)
	}
	if match &= m.valid; match != 0 {
		w := bits.TrailingZeros64(match)
		m.hits++
		o := m.order
		p := nibblePos(o, w)
		low := uint64(1)<<(4*uint(p)) - 1
		hi := ^uint64(0) << (4 * uint(p+1))
		m.order = o&hi | (o&low)<<4 | uint64(w)
		return w, true, 0, -1
	}
	m.misses++
	g.probes++
	hway = -1
	for r, pw := 0, g.pw; r < len(g.members); r++ {
		if r == c {
			continue
		}
		seg := g.tags[base+r*pw : base+r*pw+pw : base+r*pw+pw]
		if pm := matchMask(seg, block) & g.members[r].meta[si].valid; pm != 0 {
			if holders == 0 {
				hway = bits.TrailingZeros64(pm)
			}
			holders |= 1 << uint(r)
		}
	}
	return -1, false, holders, hway
}

// InvalidateOthers removes block from every member except `except` and
// returns the mask of members that held it — the MESI write-upgrade
// primitive. One fused scan (or directory lookup) finds the holders; only
// those members then run their (set-local) invalidation, so the chain costs
// O(holders) regardless of group size.
func (g *CacheGroup) InvalidateOthers(block uint64, except int) uint64 {
	g.probes++
	held := g.holderMask(block) &^ (1 << uint(except))
	for m := held; m != 0; m &= m - 1 {
		g.members[bits.TrailingZeros64(m)].Invalidate(block)
	}
	return held
}
