// A CacheGroup is the set of private caches whose cross-cache questions —
// "who holds block X", "is this the last on-chip copy", "invalidate every
// other copy" — the coherence engine in internal/cmp asks on every local
// miss, eviction and write upgrade. Each member owns its own contiguous line
// slab, so a member's probe touches only its own rows; the group adds the
// coherence directory (directory.go) that answers the holder questions
// without visiting the members.
package cachesim

import (
	"fmt"
	"math/bits"
)

// CacheGroup holds n caches of identical geometry. Each member is a fully
// functional *Cache — every single-cache operation (Access, Insert,
// Invalidate, ...) works unchanged — while the group answers cross-member
// holder queries.
type CacheGroup struct {
	members []*Cache

	// dir, when non-nil, answers every holder-mask question from the
	// coherence directory (directory.go) instead of a Lookup per member;
	// the members keep it current through their residency hooks. probes
	// counts coherence queries (holder mask, demand-miss peer scan,
	// invalidate-others) at the same call sites in both modes, so directory
	// and broadcast runs of one workload report identical probe counts.
	dir    *Directory
	probes uint64
}

// NewGroup builds n caches of identical geometry. It panics on invalid
// geometry or n outside 1..64 (construction happens at configuration time).
func NewGroup(n int, cfg Config) *CacheGroup {
	if n <= 0 || n > 64 {
		// Holder sets are uint64 bitmasks throughout the coherence engine;
		// past 64 members they would silently truncate.
		panic(fmt.Sprintf("cachesim: group of %d caches (must be 1..64)", n))
	}
	g := &CacheGroup{members: make([]*Cache, n)}
	for c := range g.members {
		g.members[c] = New(cfg)
	}
	return g
}

// Size returns the number of caches in the group.
func (g *CacheGroup) Size() int { return len(g.members) }

// Cache returns member i.
func (g *CacheGroup) Cache(i int) *Cache { return g.members[i] }

// EnableDirectory switches the group's coherence queries from broadcast
// member lookups to the coherence directory: existing contents are
// indexed, and from here on every member insert/invalidate keeps the holder
// entries current. Idempotent; answers are bit-identical to broadcast mode.
func (g *CacheGroup) EnableDirectory() {
	if g.dir != nil {
		return
	}
	d := newDirectory(len(g.members) * len(g.members[0].lines))
	for i, c := range g.members {
		c.dir = d
		c.dirIdx = i
		c.ForEachLine(func(_, _ int, l *Line) { d.add(l.Tag, i) })
	}
	g.dir = d
}

// Release returns every member's storage and the directory's segments to
// the pools construction draws from (slab.go). The group and its members
// must not be used afterwards: their slabs are nil, so any probe panics.
// Releasing twice is a no-op.
func (g *CacheGroup) Release() {
	for _, c := range g.members {
		c.Release()
	}
	if g.dir != nil {
		g.dir.release()
	}
}

// DirectoryEnabled reports whether holder queries are directory-backed.
func (g *CacheGroup) DirectoryEnabled() bool { return g.dir != nil }

// Probes returns the number of coherence queries answered since
// construction. The counter is maintained at identical call
// sites in directory and broadcast mode.
func (g *CacheGroup) Probes() uint64 { return g.probes }

// HolderMask returns a bitmask of the members currently holding block (bit i
// set iff member i has a valid copy). With the directory enabled this is one
// bounded hash lookup; in broadcast mode it is one Lookup per member. Stale
// tags left behind by invalidations can never be counted in either mode.
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
	var m uint64
	for i, c := range g.members {
		if _, ok := c.Lookup(block); ok {
			m |= 1 << uint(i)
		}
	}
	return m
}

// LastCopy reports whether no member other than except holds block — the
// eviction path's "may this line leave the chip?" test, answered by one
// holder-mask probe.
func (g *CacheGroup) LastCopy(block uint64, except int) bool {
	return g.HolderMask(block)&^(1<<uint(except)) == 0
}

// DemandAccess is member c's demand lookup composed with the miss path's
// coherence probe: exactly c.Access(block) and, on a miss, the peer holder
// mask (one HolderMask probe) and the way of the block inside the
// lowest-index holder (hway, -1 when no peer holds it). On a hit no peer is
// consulted: holders and hway are 0 and -1.
func (g *CacheGroup) DemandAccess(c int, block uint64) (way int, hit bool, holders uint64, hway int) {
	if way, hit = g.members[c].Access(block); hit {
		return way, true, 0, -1
	}
	hway = -1
	if holders = g.HolderMask(block) &^ (1 << uint(c)); holders != 0 {
		hway, _ = g.members[bits.TrailingZeros64(holders)].Lookup(block)
	}
	return -1, false, holders, hway
}

// InvalidateOthers removes block from every member except `except` and
// returns the mask of members that held it — the MESI write-upgrade
// primitive. One holder-mask probe finds the holders; only those members
// then run their (set-local) invalidation.
func (g *CacheGroup) InvalidateOthers(block uint64, except int) uint64 {
	g.probes++
	held := g.holderMask(block) &^ (1 << uint(except))
	for m := held; m != 0; m &= m - 1 {
		g.members[bits.TrailingZeros64(m)].Invalidate(block)
	}
	return held
}
