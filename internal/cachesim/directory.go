// The coherence directory: a Directory layered over a CacheGroup answers
// "which members hold block X" from one hash table instead of probing every
// member. The broadcast answer is one Lookup per member, O(cores) per probe;
// the directory answers every holder-mask question in O(1) expected — one
// bounded probe run — and invalidation chains in O(holders).
//
// Layout: one open-addressing hash table over every line of the group, made
// of whole fixed-size segments (dirSegLen entries, 64 KiB each): slot i is
// entry i%dirSegLen of segment i/dirSegLen. A table holds as many segments
// as keep the group's line count at or below half its slots, but at most
// dirDenseSegs segments (2 MiB) unless more are needed to keep the line
// count at or below dirLoadNum/dirLoadDen (0.9) of its slots, so it can
// never fill and insertion never allocates. At the default geometry a
// 4-core machine's table is 8 segments, a 16-core one 32, a 32-core one 36
// and a 64-core one 72; a group smaller than one segment takes one segment.
// The dense bound is kept to the wide tables, whose bytes make up a wide
// machine's peak memory; it lengthens every probe run, which a narrow
// machine would pay for kilobytes. Every table, whatever the machine's
// width, is thereby made of the one slab length the pool recycles
// (slab.go), and a wider machine's table is built from the segments a
// narrower machine released.
//
// Probe order: a block's home slot is its multiplicative hash scaled onto
// the table by a multiply-high (the table length need not be a power of
// two), and collisions probe linearly, wrapping from the last slot to the
// first. The table is kept in Robin Hood order: along every run of
// occupied slots, entries sit in the order of their home slots, so an
// entry is never farther from its home than an entry after it is from its
// own. A lookup therefore stops at the first empty slot or the first entry
// closer to its home than the lookup is, which bounds absent-block probes
// as tightly as present ones at the high load factor; an insertion shifts
// the rest of the run one slot on, and a deletion shifts the entries after
// it back (backward-shift deletion, no tombstones).
//
// Maintenance is event-driven from the member caches: every residency change
// (Insert, InsertWay, Invalidate — all funnelled through insertAt/Invalidate
// plus Insert's fused full-set path) notifies the directory via the hooks in
// cachesim.go. A member may transiently hold the same block in two ways
// (sequences only the fuzzers produce); removal therefore re-probes the
// member and keeps the holder bit while any copy survives. The directory is
// bit-exact against the broadcast lookups by construction, and the group
// fuzzer drives both modes against independent caches to pin that.
package cachesim

import "math/bits"

// dirEntry is one occupied directory slot: the block address and the bitmask
// of members holding it. holders == 0 marks an empty slot, which is sound
// because an entry's holder set going empty is exactly when it is deleted.
type dirEntry struct {
	block   uint64
	holders uint64
}

// dirSegShift fixes the segment size: dirSegLen entries of 16 bytes, 64 KiB.
const (
	dirSegShift = 12
	dirSegLen   = 1 << dirSegShift
	dirSegMask  = dirSegLen - 1
)

// The load bounds. A table keeps two slots per line of its group, where
// probe runs stay short, as long as that takes at most dirDenseSegs
// segments (2 MiB); a larger group's table, whose bytes are what a wide
// machine's peak memory is made of, keeps at least dirLoadDen/dirLoadNum
// slots per line (the dense bound, 0.9).
const (
	dirDenseSegs = 32
	dirLoadNum   = 9
	dirLoadDen   = 10
)

// dirSeg is one segment of a directory table.
type dirSeg = [dirSegLen]dirEntry

// Directory is the holder index of a CacheGroup: one open-addressing table
// in Robin Hood order whose slots live in fixed-size segments.
type Directory struct {
	segs []*dirSeg
	n    uint64 // table length, len(segs)*dirSegLen
}

// dirHashMul is the 64-bit golden-ratio multiplier; block addresses are
// near-sequential per workload region, and the multiply spreads them across
// the high bits the home slot is taken from.
const dirHashMul = 0x9e3779b97f4a7c15

// home returns block's preferred slot: its hash times the table length,
// high word (a hash in [0, 2^64) scaled onto [0, n)).
func (d *Directory) home(block uint64) uint64 {
	hi, _ := bits.Mul64(block*dirHashMul, d.n)
	return hi
}

// dist returns how many slots past its home slot an entry for block sits
// at slot i.
func (d *Directory) dist(i, block uint64) uint64 {
	h := d.home(block)
	if i < h {
		i += d.n
	}
	return i - h
}

// next returns the slot after i, wrapping at the end of the table.
func (d *Directory) next(i uint64) uint64 {
	if i++; i == d.n {
		return 0
	}
	return i
}

// slot returns table slot i.
func (d *Directory) slot(i uint64) *dirEntry {
	return &d.segs[i>>dirSegShift][i&dirSegMask]
}

// dirSegments returns the segment count of the table for a group of lines
// lines: enough to keep lines at or below half the slots, but no more than
// dirDenseSegs, and never fewer than keep lines at or below the dense
// bound; at least one.
func dirSegments(lines int) int {
	sparse := max(1, (2*lines+dirSegLen-1)/dirSegLen)
	per := dirSegLen * dirLoadNum
	return max(min(sparse, dirDenseSegs), (lines*dirLoadDen+per-1)/per)
}

// newDirectory builds the directory for a group holding lines lines
// between its members. Its segments come from the pool CacheGroup.Release
// fills (slab.go).
func newDirectory(lines int) *Directory {
	segs := make([]*dirSeg, dirSegments(lines))
	for k := range segs {
		segs[k] = (*dirSeg)(dirPool.get(dirSegLen))
	}
	return &Directory{segs: segs, n: uint64(len(segs)) * dirSegLen}
}

// release hands the directory's segments back to the pool. The directory
// must not be used afterwards: with no segments, any probe panics.
func (d *Directory) release() {
	for _, s := range d.segs {
		dirPool.put(s[:])
	}
	d.segs = nil
}

// find returns block's slot and true when the table holds it; otherwise
// the slot it would be inserted at and false. The scan ends at block, at
// an empty slot, or at an entry nearer its home than block would be there,
// past which Robin Hood order cannot hold block. The load bound leaves
// empty slots, so it always ends.
func (d *Directory) find(block uint64) (uint64, bool) {
	i := d.home(block)
	for dist := uint64(0); ; dist++ {
		e := d.slot(i)
		if e.holders == 0 {
			return i, false
		}
		if e.block == block {
			return i, true
		}
		if d.dist(i, e.block) < dist {
			return i, false
		}
		i = d.next(i)
	}
}

// holders returns the bitmask of members holding block (0 when untracked).
func (d *Directory) holders(block uint64) uint64 {
	if i, ok := d.find(block); ok {
		return d.slot(i).holders
	}
	return 0
}

// add records that member holds block. A new entry goes where find stopped
// and shifts the rest of its run one slot on, keeping Robin Hood order;
// the run ends at an empty slot, which the load bound guarantees exists.
func (d *Directory) add(block uint64, member int) {
	i, ok := d.find(block)
	if ok {
		d.slot(i).holders |= 1 << uint(member)
		return
	}
	for e := (dirEntry{block, 1 << uint(member)}); e.holders != 0; i = d.next(i) {
		s := d.slot(i)
		*s, e = e, *s
	}
}

// remove clears member's holder bit for block, deleting the entry when the
// holder set empties. Absent blocks are tolerated (an insert may overwrite an
// invalid-proto line that was never tracked).
func (d *Directory) remove(block uint64, member int) {
	i, ok := d.find(block)
	if !ok {
		return
	}
	e := d.slot(i)
	if e.holders &^= 1 << uint(member); e.holders == 0 {
		d.del(i)
	}
}

// del empties slot i and shifts the entries after it in its run back one
// slot each, up to the first empty slot or entry already at its home — the
// backward-shift deletion that keeps Robin Hood order without tombstones.
func (d *Directory) del(i uint64) {
	for {
		j := d.next(i)
		e := *d.slot(j)
		if e.holders == 0 || d.home(e.block) == j {
			*d.slot(i) = dirEntry{}
			return
		}
		*d.slot(i) = e
		i = j
	}
}

// occupancy returns the number of tracked blocks (tests, audit).
func (d *Directory) occupancy() int {
	n := 0
	for _, s := range d.segs {
		for _, e := range s {
			if e.holders != 0 {
				n++
			}
		}
	}
	return n
}
