package cachesim

import (
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
)

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

// TestSlabPoolAcrossGoroutines: the next get of a length returns the slab
// last put, whichever goroutine and P put it. The putting goroutine keeps
// its P busy until the get is done, so the get usually runs on another P —
// where a sync.Pool, which keeps the last put in a per-P slot, would miss
// it. A collection empties the lists by design, so none may run meanwhile.
func TestSlabPoolAcrossGoroutines(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs two Ps")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n = 4321
	for i := 0; i < 20; i++ {
		put := make(chan *Line)
		var done atomic.Bool
		go func() {
			s := make([]Line, n)
			linePool.put(s)
			put <- &s[0]
			for !done.Load() {
			}
		}()
		want := <-put
		got := linePool.get(n)
		done.Store(true)
		if &got[0] != want {
			t.Fatalf("round %d: get returned a fresh slab, not the one put on another goroutine", i)
		}
	}
}

// TestGroupReleaseAndRebuild releases a directory-backed group that holds
// data and builds the same geometry again: the new group must start empty
// (no valid line, no directory holder, identity recency, zero counters)
// whatever storage it got, and the released members must panic on use
// instead of reading storage the new group may own. Releasing twice is a
// no-op. A group with twice the members, whose larger directory is built
// partly from the released group's segments, must start as empty and
// answer every holder query as a fresh group does.
func TestGroupReleaseAndRebuild(t *testing.T) {
	cfg := Config{SizeBytes: 4096, Ways: 8, LineBytes: 64}
	fill := func(g *CacheGroup) {
		for m := 0; m < len(g.members); m++ {
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
	for m := 0; m < len(g.members); m++ {
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

	widenOnReleasedSegments(t)

	defer func() {
		if recover() == nil {
			t.Error("Access on a released cache did not panic")
		}
	}()
	old.Cache(0).Access(3)
}

// widenOnReleasedSegments fills every line of a 4-member group whose
// directory is one segment, releases it, and builds 8 members of the same
// geometry: their two-segment directory must take the released segment
// back as its first and still start empty, with no holder bit left in it.
// The released segment keeps its slot numbers in the wider table, so a
// stale entry would sit on its block's probe path whenever the wider
// table's extra hash bit is 0. A collection empties the pool, so none may
// run between the release and the rebuild.
func widenOnReleasedSegments(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cfg := Config{SizeBytes: 32 << 10, Ways: 8, LineBytes: 64} // 512 lines
	// Member m fills every line with blocks base+5b+m; the narrow group
	// fills from a base the wide groups never touch, so a holder bit left
	// in a reused segment answers for a block no wide member holds.
	const narrowBase, blocks = 1 << 20, 5*512 + 8
	fill := func(g *CacheGroup, base uint64) {
		for m := 0; m < len(g.members); m++ {
			for b := uint64(0); b < 512; b++ {
				g.Cache(m).Insert(base+b*5+uint64(m), InsertMRU, Line{State: Shared})
			}
		}
	}
	narrow := NewGroup(4, cfg)
	narrow.EnableDirectory()
	fill(narrow, narrowBase)
	if n := len(narrow.dir.segs); n != 1 {
		t.Fatalf("a 4-member directory spans %d segments, want 1", n)
	}
	released := narrow.dir.segs[0]
	narrow.Release()

	wide := NewGroup(8, cfg)
	wide.EnableDirectory()
	if len(wide.dir.segs) != 2 || wide.dir.segs[0] != released {
		t.Fatalf("an 8-member directory spans %d segments and does not start with the released one",
			len(wide.dir.segs))
	}
	if n := wide.dir.occupancy(); n != 0 {
		t.Fatalf("widened directory tracks %d blocks on reused segments", n)
	}
	fresh := NewGroup(8, cfg)
	fresh.EnableDirectory()
	fill(wide, 0)
	fill(fresh, 0)
	for _, base := range []uint64{0, narrowBase} {
		for b := base; b < base+blocks; b++ {
			if got, want := wide.HolderMask(b), fresh.HolderMask(b); got != want {
				t.Fatalf("block %d: widened group holders %b, fresh group %b", b, got, want)
			}
		}
	}
}
