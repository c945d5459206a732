package cachesim

import "testing"

// TestSlabPoolHandsOutClearedSlabs: a slab put back dirty comes out of get
// zeroed and at the requested length, whether get recycles it or (the pool
// having dropped it) allocates afresh.
func TestSlabPoolHandsOutClearedSlabs(t *testing.T) {
	dirty := make([]Line, 96)
	for i := range dirty {
		dirty[i] = Line{Tag: uint64(i) + 1, State: Modified, Dirty: true, Owner: 3}
	}
	linePool.put(dirty)
	got := linePool.get(96)
	if len(got) != 96 {
		t.Fatalf("get(96) returned %d lines", len(got))
	}
	for i, l := range got {
		if l != (Line{}) {
			t.Fatalf("recycled line %d = %+v, want zero", i, l)
		}
	}
	if other := linePool.get(97); len(other) != 97 {
		t.Fatalf("get(97) returned %d lines", len(other))
	}
	linePool.put(nil) // nothing to recycle: a no-op
}

// TestGroupReleaseAndRebuild releases a directory-backed group that holds
// data and builds the same geometry again: the new group must start empty
// (no valid line, no directory holder, identity recency, zero counters)
// whatever storage it got, and the released members must panic on use
// instead of reading storage the new group may own. Releasing twice is a
// no-op.
func TestGroupReleaseAndRebuild(t *testing.T) {
	cfg := Config{SizeBytes: 4096, Ways: 8, LineBytes: 64}
	fill := func(g *CacheGroup) {
		for m := 0; m < g.Size(); m++ {
			for b := uint64(0); b < 100; b++ {
				g.Cache(m).Insert(b*3+uint64(m), InsertMRU, Line{State: Modified, Dirty: true})
				g.Cache(m).Access(b * 3)
			}
		}
	}
	old := NewGroup(4, cfg)
	old.EnableDirectory()
	fill(old)
	old.Release()
	old.Release()

	g := NewGroup(4, cfg)
	g.EnableDirectory()
	for m := 0; m < g.Size(); m++ {
		c := g.Cache(m)
		if n := c.ValidLines(); n != 0 {
			t.Fatalf("member %d of the rebuilt group holds %d valid lines", m, n)
		}
		if acc, _, _ := c.Totals(); acc != 0 {
			t.Fatalf("member %d of the rebuilt group counts %d accesses", m, acc)
		}
		for si := 0; si < c.NumSets(); si++ {
			for k, w := range c.RecencyStack(si) {
				if k != w {
					t.Fatalf("member %d set %d recency %v, want identity", m, si, c.RecencyStack(si))
				}
			}
		}
	}
	if n := g.dir.occupancy(); n != 0 {
		t.Fatalf("rebuilt directory tracks %d blocks", n)
	}
	if h := g.HolderMask(3); h != 0 {
		t.Fatalf("rebuilt group reports holders %b for a block only the released group held", h)
	}

	fresh := NewGroup(4, cfg)
	fresh.EnableDirectory()
	fill(g)
	fill(fresh)
	for b := uint64(0); b < 300; b++ {
		if got, want := g.HolderMask(b), fresh.HolderMask(b); got != want {
			t.Fatalf("block %d: rebuilt group holders %b, fresh group %b", b, got, want)
		}
	}

	defer func() {
		if recover() == nil {
			t.Error("Access on a released cache did not panic")
		}
	}()
	old.Cache(0).Access(3)
}
