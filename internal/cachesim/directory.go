// The coherence directory: a Directory layered over a CacheGroup answers
// "which members hold block X" from one hash table instead of probing every
// member. The broadcast answer is one Lookup per member, O(cores) per probe;
// the directory answers every holder-mask question in O(1) expected — one
// bounded linear-probe lookup — and invalidation chains in O(holders).
//
// Layout: one fixed-capacity open-addressing table (linear probing,
// backward-shift deletion) over every line of the group, sized at
// construction to at least twice the group's line count, so the load factor
// never exceeds 1/2 and insertion cannot fail or allocate.
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

// dirEntry is one occupied directory slot: the block address and the bitmask
// of members holding it. holders == 0 marks an empty slot, which is sound
// because an entry's holder set going empty is exactly when it is deleted.
type dirEntry struct {
	block   uint64
	holders uint64
}

// Directory is the holder index of a CacheGroup: one open-addressing table.
type Directory struct {
	entries []dirEntry
	mask    uint64 // len(entries)-1; len is a power of two
}

// dirHashMul is the 64-bit golden-ratio multiplier; block addresses are
// near-sequential per workload region, and the multiply spreads them across
// the table.
const dirHashMul = 0x9e3779b97f4a7c15

// home returns block's preferred slot.
func (d *Directory) home(block uint64) uint64 {
	return (block * dirHashMul) >> 32 & d.mask
}

// newDirectory builds the directory for a group holding lines lines between
// its members, sized to at least twice that line count.
func newDirectory(lines int) *Directory {
	cap := 8
	for cap < 2*lines {
		cap <<= 1
	}
	return &Directory{entries: make([]dirEntry, cap), mask: uint64(cap - 1)}
}

// holders returns the bitmask of members holding block (0 when untracked).
func (d *Directory) holders(block uint64) uint64 {
	for i := d.home(block); ; i = (i + 1) & d.mask {
		e := d.entries[i]
		if e.holders == 0 {
			return 0
		}
		if e.block == block {
			return e.holders
		}
	}
}

// add records that member holds block. The table can never fill: capacity is
// at least twice the group's line count, and distinct tracked blocks cannot
// exceed that line count.
func (d *Directory) add(block uint64, member int) {
	for i := d.home(block); ; i = (i + 1) & d.mask {
		e := &d.entries[i]
		if e.holders == 0 {
			e.block = block
			e.holders = 1 << uint(member)
			return
		}
		if e.block == block {
			e.holders |= 1 << uint(member)
			return
		}
	}
}

// remove clears member's holder bit for block, deleting the entry when the
// holder set empties. Absent blocks are tolerated (an insert may overwrite an
// invalid-proto line that was never tracked).
func (d *Directory) remove(block uint64, member int) {
	for i := d.home(block); ; i = (i + 1) & d.mask {
		e := &d.entries[i]
		if e.holders == 0 {
			return
		}
		if e.block == block {
			e.holders &^= 1 << uint(member)
			if e.holders == 0 {
				d.del(i)
			}
			return
		}
	}
}

// del empties slot i and backward-shifts the probe chain behind it so every
// surviving entry stays reachable from its home slot — the standard deletion
// for linear probing, avoiding tombstones that would degrade lookups.
func (d *Directory) del(i uint64) {
	for {
		d.entries[i] = dirEntry{}
		j := i
		for {
			j = (j + 1) & d.mask
			e := d.entries[j]
			if e.holders == 0 {
				return
			}
			// Move e back into the hole iff its home slot does not sit
			// (cyclically) strictly between the hole and j — i.e. the hole is
			// on e's probe path.
			if (j-d.home(e.block))&d.mask >= (j-i)&d.mask {
				d.entries[i] = e
				i = j
				break
			}
		}
	}
}

// occupancy returns the number of tracked blocks (tests, debugging).
func (d *Directory) occupancy() int {
	n := 0
	for _, e := range d.entries {
		if e.holders != 0 {
			n++
		}
	}
	return n
}
