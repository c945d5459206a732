package cachesim

import (
	"fmt"
	"math/bits"
)

// The structural audit of a CacheGroup and its directory. It lives with
// the tests because only they call it; an audit of a whole System would
// call it for the L2 group from the package itself.

// Audit exposes the group's structural check to the external differential
// tests (group_diff_test.go).
func (g *CacheGroup) Audit() error { return g.audit() }

// audit checks the group's structural invariants and returns the first
// violation it finds, or nil:
//
//   - in every member, each set's valid mask agrees with its lines'
//     states;
//
// and with the directory enabled:
//
//   - every valid line's block carries its member's holder bit;
//   - every directory entry is where a lookup of its block finds it, and
//     each of its holders holds the block;
//   - the directory's occupancy stays within its load bound.
//
// Tests call it after every operation batch; it is O(lines).
func (g *CacheGroup) audit() error {
	for i, c := range g.members {
		if err := c.auditValid(); err != nil {
			return fmt.Errorf("cachesim: member %d: %w", i, err)
		}
	}
	d := g.dir
	if d == nil {
		return nil
	}
	for i, c := range g.members {
		var err error
		c.ForEachLine(func(si, w int, l *Line) {
			if err == nil && d.holders(l.Tag)&(1<<uint(i)) == 0 {
				err = fmt.Errorf("cachesim: member %d holds block %#x at (%d, %d) without its holder bit", i, l.Tag, si, w)
			}
		})
		if err != nil {
			return err
		}
	}
	if err := d.audit(); err != nil {
		return err
	}
	for i := uint64(0); i < d.n; i++ {
		e := *d.slot(i)
		if e.holders>>uint(len(g.members)-1)>>1 != 0 {
			return fmt.Errorf("cachesim: directory entry for block %#x names holders %b beyond the group's %d members", e.block, e.holders, len(g.members))
		}
		for m := e.holders; m != 0; m &= m - 1 {
			h := bits.TrailingZeros64(m)
			if _, ok := g.members[h].Lookup(e.block); !ok {
				return fmt.Errorf("cachesim: directory names member %d a holder of block %#x, which it does not hold", h, e.block)
			}
		}
	}
	return nil
}

// audit checks that every entry sits where a lookup of its block finds it
// (Robin Hood order) and that the occupancy is within the load bound.
func (d *Directory) audit() error {
	n := 0
	for i := uint64(0); i < d.n; i++ {
		e := *d.slot(i)
		if e.holders == 0 {
			continue
		}
		n++
		if at, ok := d.find(e.block); !ok || at != i {
			return fmt.Errorf("cachesim: directory entry for block %#x at slot %d is out of Robin Hood order", e.block, i)
		}
	}
	if uint64(n)*dirLoadDen > d.n*dirLoadNum {
		return fmt.Errorf("cachesim: directory tracks %d blocks in %d slots, above its %d/%d load bound", n, d.n, dirLoadNum, dirLoadDen)
	}
	return nil
}

// auditValid checks the packed mirror of line state: in every set of a
// packed cache, the valid mask has bit w set exactly when way w holds a
// valid line, and no bit at or above Ways. A wide cache keeps validity in
// its wideState instead.
func (c *Cache) auditValid() error {
	if c.wide != nil {
		return nil
	}
	for si := range c.meta {
		var want uint64
		for w, l := range c.lines[si*c.ways : (si+1)*c.ways] {
			if l.Valid() {
				want |= 1 << uint(w)
			}
		}
		if got := c.meta[si].valid; got != want {
			return fmt.Errorf("set %d: valid mask %b, line states say %b", si, got, want)
		}
	}
	return nil
}
