package cachesim

import (
	"errors"
	"testing"
	"testing/quick"
	"unsafe"

	"ascc/internal/rng"
)

func smallCache() *Cache {
	// 4 sets x 4 ways x 32B lines = 512B.
	return New(Config{SizeBytes: 512, Ways: 4, LineBytes: 32})
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		cfg Config
		ok  bool
	}{
		{Config{SizeBytes: 1 << 20, Ways: 8, LineBytes: 32}, true},
		{Config{SizeBytes: 512, Ways: 4, LineBytes: 32}, true},
		{Config{SizeBytes: 256, Ways: 2, LineBytes: 32}, true},  // 2 of 4 ways at 4 sets
		{Config{SizeBytes: 512, Ways: 16, LineBytes: 32}, true}, // fully associative: one set
		{Config{SizeBytes: 0, Ways: 4, LineBytes: 32}, false},
		{Config{SizeBytes: 512, Ways: 0, LineBytes: 32}, false},
		{Config{SizeBytes: 512, Ways: 4, LineBytes: 33}, false},
		{Config{SizeBytes: 500, Ways: 4, LineBytes: 32}, false},
		{Config{SizeBytes: 512, Ways: 5, LineBytes: 32}, false},
		{Config{SizeBytes: 512, Ways: 32, LineBytes: 32}, false},         // more ways than lines
		{Config{SizeBytes: 2 * 32 * 32, Ways: 32, LineBytes: 32}, false}, // 2 sets x 32 ways: wide must be one set
		// 3*32B lines per set => 12 sets, not a power of two.
		{Config{SizeBytes: 384, Ways: 1, LineBytes: 32}, false},
	}
	for i, tc := range cases {
		err := tc.cfg.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("case %d (%+v): err=%v, want ok=%v", i, tc.cfg, err, tc.ok)
		}
	}
}

// TestLineSize pins the 16-byte Line: the probe compares tags in place in
// the line row, so an 8-way row must stay two host cache lines. A field that
// grows Line would add a third line to every L2 probe.
func TestLineSize(t *testing.T) {
	if got := unsafe.Sizeof(Line{}); got != 16 {
		t.Fatalf("unsafe.Sizeof(Line{}) = %d, want 16: an 8-way row must stay two 64-byte host cache lines (128 B)", got)
	}
}

func TestGeometry(t *testing.T) {
	c := New(Config{SizeBytes: 1 << 20, Ways: 8, LineBytes: 32})
	if c.NumSets() != 4096 {
		t.Fatalf("1MB/8way/32B cache has %d sets, want 4096", c.NumSets())
	}
	if c.Ways() != 8 {
		t.Fatalf("ways = %d, want 8", c.Ways())
	}
	fa := New(Config{SizeBytes: 1 << 10, Ways: 32, LineBytes: 32})
	if fa.NumSets() != 1 || fa.Ways() != 32 {
		t.Fatalf("fully associative: sets=%d ways=%d, want 1/32", fa.NumSets(), fa.Ways())
	}
}

// TestWideUnsupportedOpsPanic: a cache wider than 16 ways implements only
// the demand lookups and MRU fills of a single core under plain LRU; every
// other operation, and a fill the tag index cannot take, panics with
// errWideOp instead of corrupting the index or the recency list.
func TestWideUnsupportedOpsPanic(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   func(c *Cache)
	}{
		{"Touch", func(c *Cache) { c.Touch(0, 1) }},
		{"InsertWay", func(c *Cache) { c.InsertWay(100, 9, InsertMRU, Line{State: Exclusive}) }},
		{"Invalidate", func(c *Cache) { c.Invalidate(3) }},
		{"VictimAmong", func(c *Cache) { c.VictimAmong(0, func(int) bool { return true }) }},
		{"VictimDead", func(c *Cache) { c.VictimDead(0) }},
		{"Insert at LRU", func(c *Cache) { c.Insert(100, InsertLRU, Line{State: Exclusive}) }},
		{"Insert at LRU-1", func(c *Cache) { c.Insert(100, InsertLRU1, Line{State: Exclusive}) }},
		{"invalid fill", func(c *Cache) { c.Insert(100, InsertMRU, Line{}) }},
		{"resident fill", func(c *Cache) { c.Insert(3, InsertMRU, Line{State: Exclusive}) }},
	} {
		c := New(Config{SizeBytes: 1 << 10, Ways: 32, LineBytes: 32})
		for b := uint64(0); b < 8; b++ {
			c.Insert(b, InsertMRU, Line{State: Exclusive})
		}
		func() {
			defer func() {
				if err, _ := recover().(error); !errors.Is(err, errWideOp) {
					t.Errorf("%s on a 32-way fully associative cache: recovered %v, want errWideOp", tc.name, err)
				}
			}()
			tc.op(c)
		}()
	}
}

func TestMissThenHit(t *testing.T) {
	c := smallCache()
	if _, hit := c.Access(0x100); hit {
		t.Fatal("access to empty cache hit")
	}
	c.Insert(0x100, InsertMRU, Line{State: Exclusive})
	if _, hit := c.Access(0x100); !hit {
		t.Fatal("access after insert missed")
	}
	acc, hits, misses := c.Totals()
	if acc != 2 || hits != 1 || misses != 1 {
		t.Fatalf("totals = %d/%d/%d, want 2/1/1", acc, hits, misses)
	}
}

func TestSetIndexMapping(t *testing.T) {
	c := smallCache() // 4 sets
	for block := uint64(0); block < 64; block++ {
		if got, want := c.SetIndex(block), int(block%4); got != want {
			t.Fatalf("SetIndex(%d) = %d, want %d", block, got, want)
		}
	}
}

func TestLRUReplacementOrder(t *testing.T) {
	c := smallCache()
	// Fill set 0 with blocks 0,4,8,12 (all map to set 0).
	for i := uint64(0); i < 4; i++ {
		c.Access(i * 4)
		c.Insert(i*4, InsertMRU, Line{State: Exclusive})
	}
	// Touch block 0 so block 4 becomes LRU.
	c.Access(0)
	ev := c.Insert(16, InsertMRU, Line{State: Exclusive})
	if ev.Tag != 4 || !ev.Valid() {
		t.Fatalf("evicted tag %d (valid=%v), want 4", ev.Tag, ev.Valid())
	}
}

func TestInsertLRUPositionEvictedFirst(t *testing.T) {
	c := smallCache()
	for i := uint64(0); i < 4; i++ {
		c.Insert(i*4, InsertMRU, Line{State: Exclusive})
	}
	// Insert at LRU: it evicts the old LRU (block 0) and the new line is
	// itself next in line for eviction.
	ev := c.Insert(16, InsertLRU, Line{State: Exclusive})
	if ev.Tag != 0 {
		t.Fatalf("evicted %d, want 0", ev.Tag)
	}
	ev = c.Insert(20, InsertMRU, Line{State: Exclusive})
	if ev.Tag != 16 {
		t.Fatalf("evicted %d, want the LRU-inserted 16", ev.Tag)
	}
}

func TestInsertLRU1Position(t *testing.T) {
	c := smallCache()
	for i := uint64(0); i < 4; i++ {
		c.Insert(i*4, InsertMRU, Line{State: Exclusive})
	}
	// Recency stack is now [12 8 4 0]. Insert 16 at LRU-1: evicts 0, stack
	// becomes [12 8 16 4] => next victim is 4, then 16.
	ev := c.Insert(16, InsertLRU1, Line{State: Exclusive})
	if ev.Tag != 0 {
		t.Fatalf("evicted %d, want 0", ev.Tag)
	}
	ev = c.Insert(20, InsertMRU, Line{State: Exclusive})
	if ev.Tag != 4 {
		t.Fatalf("evicted %d, want 4 (LRU), not the LRU-1 inserted line", ev.Tag)
	}
	ev = c.Insert(24, InsertMRU, Line{State: Exclusive})
	if ev.Tag != 16 {
		t.Fatalf("evicted %d, want 16", ev.Tag)
	}
}

func TestInvalidate(t *testing.T) {
	c := smallCache()
	c.Insert(0x40, InsertMRU, Line{State: Modified, Dirty: true})
	old, ok := c.Invalidate(0x40)
	if !ok || !old.Dirty || old.State != Modified {
		t.Fatalf("invalidate returned %+v ok=%v", old, ok)
	}
	if _, ok := c.Lookup(0x40); ok {
		t.Fatal("line still present after invalidate")
	}
	if _, ok := c.Invalidate(0x40); ok {
		t.Fatal("double invalidate reported success")
	}
	// The freed way must be the next victim.
	c.Insert(0x44, InsertMRU, Line{State: Exclusive})
	if c.ValidLines() != 1 {
		t.Fatalf("valid lines = %d, want 1", c.ValidLines())
	}
}

// TestEnabledWaysRestrictCapacity: Figure 1's "2 of 4 ways enabled" is a
// 2-way cache with the 4-way cache's set count.
func TestEnabledWaysRestrictCapacity(t *testing.T) {
	c := New(Config{SizeBytes: 256, Ways: 2, LineBytes: 32})
	if c.Ways() != 2 || c.NumSets() != 4 {
		t.Fatalf("geometry %d sets x %d ways, want 4 x 2", c.NumSets(), c.Ways())
	}
	c.Insert(0, InsertMRU, Line{State: Exclusive})
	c.Insert(4, InsertMRU, Line{State: Exclusive})
	ev := c.Insert(8, InsertMRU, Line{State: Exclusive})
	if ev.Tag != 0 || !ev.Valid() {
		t.Fatalf("2-way set evicted %+v, want block 0", ev)
	}
}

func TestFullyAssociativeNoConflicts(t *testing.T) {
	// 8-line fully associative cache (one set of 8 ways): any 8 blocks
	// coexist.
	c := New(Config{SizeBytes: 256, Ways: 8, LineBytes: 32})
	for i := uint64(0); i < 8; i++ {
		c.Insert(i*1024, InsertMRU, Line{State: Exclusive})
	}
	if c.ValidLines() != 8 {
		t.Fatalf("valid lines = %d, want 8", c.ValidLines())
	}
	for i := uint64(0); i < 8; i++ {
		if _, hit := c.Access(i * 1024); !hit {
			t.Fatalf("block %d missing in fully associative cache", i)
		}
	}
}

func TestPerSetStats(t *testing.T) {
	c := smallCache()
	c.Access(0) // miss set 0
	c.Insert(0, InsertMRU, Line{State: Exclusive})
	c.Access(0) // hit set 0
	c.Access(1) // miss set 1
	s0, s1 := c.SetStatsFor(0), c.SetStatsFor(1)
	if s0.Hits != 1 || s0.Misses != 1 {
		t.Fatalf("set0 stats %+v, want 1 hit 1 miss", s0)
	}
	if s1.Hits != 0 || s1.Misses != 1 {
		t.Fatalf("set1 stats %+v, want 0 hits 1 miss", s1)
	}
}

// stackInvariant verifies the recency stack is a permutation of the enabled
// ways.
func stackInvariant(c *Cache, setIdx int) bool {
	st := c.RecencyStack(setIdx)
	if len(st) != c.Ways() {
		return false
	}
	seen := make(map[int]bool, len(st))
	for _, w := range st {
		if w < 0 || w >= c.Ways() || seen[w] {
			return false
		}
		seen[w] = true
	}
	return true
}

func TestRecencyStackPermutationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		c := smallCache()
		positions := []InsertPos{InsertMRU, InsertLRU, InsertLRU1}
		for i := 0; i < 500; i++ {
			block := uint64(r.Intn(64))
			switch r.Intn(4) {
			case 0, 1:
				if _, hit := c.Access(block); !hit {
					c.Insert(block, positions[r.Intn(3)], Line{State: Exclusive})
				}
			case 2:
				c.Invalidate(block)
			case 3:
				if w, ok := c.Lookup(block); ok {
					c.Touch(c.SetIndex(block), w)
				}
			}
			for s := 0; s < c.NumSets(); s++ {
				if !stackInvariant(c, s) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNoDuplicateTagsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		c := smallCache()
		for i := 0; i < 400; i++ {
			block := uint64(r.Intn(32))
			if _, hit := c.Access(block); !hit {
				c.Insert(block, InsertMRU, Line{State: Exclusive})
			}
			// Check for duplicate tags within each set.
			dup := false
			tags := map[uint64]int{}
			c.ForEachLine(func(si, w int, l *Line) {
				key := l.Tag
				if prev, ok := tags[key]; ok && prev == si {
					dup = true
				}
				tags[key] = si
			})
			if dup {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestHitRateOfLoopFittingInCache(t *testing.T) {
	// A loop over exactly the cache capacity under MRU insertion must hit
	// after the first pass.
	c := smallCache() // 16 lines
	misses := 0
	for pass := 0; pass < 10; pass++ {
		for b := uint64(0); b < 16; b++ {
			if _, hit := c.Access(b); !hit {
				misses++
				c.Insert(b, InsertMRU, Line{State: Exclusive})
			}
		}
	}
	if misses != 16 {
		t.Fatalf("misses = %d, want 16 (cold only)", misses)
	}
}

func TestThrashingLoopLRUvsBIPStyle(t *testing.T) {
	// A cyclic loop of 1.5x capacity thrashes under MRU insertion (0 hits
	// after cold) but retains part of the working set under LRU insertion.
	const blocks = 24 // capacity is 16 lines
	run := func(pos InsertPos, bip bool, r *rng.Xoshiro256) (hits int) {
		c := smallCache()
		for pass := 0; pass < 40; pass++ {
			for b := uint64(0); b < blocks; b++ {
				if _, hit := c.Access(b); hit {
					hits++
				} else {
					p := pos
					if bip && r.Bernoulli(1.0/32.0) {
						p = InsertMRU
					}
					c.Insert(b, p, Line{State: Exclusive})
				}
			}
		}
		return hits
	}
	r := rng.New(42)
	lruHits := run(InsertMRU, false, r)
	bipHits := run(InsertLRU, true, r)
	if bipHits <= lruHits {
		t.Fatalf("BIP-style insertion (%d hits) should beat MRU insertion (%d hits) on a thrashing loop", bipHits, lruHits)
	}
}

func TestInsertReturnsInvalidWhenWayFree(t *testing.T) {
	c := smallCache()
	ev := c.Insert(0, InsertMRU, Line{State: Exclusive})
	if ev.Valid() {
		t.Fatalf("insert into empty set evicted %+v", ev)
	}
}

func TestOwnerAndSpilledPreserved(t *testing.T) {
	c := smallCache()
	c.Insert(0, InsertMRU, Line{State: Modified, Dirty: true, Spilled: true, Owner: 3})
	w, ok := c.Lookup(0)
	if !ok {
		t.Fatal("line missing")
	}
	l := c.Line(c.SetIndex(0), w)
	if !l.Spilled || l.Owner != 3 || !l.Dirty || l.State != Modified {
		t.Fatalf("line metadata lost: %+v", *l)
	}
}

func TestLineStateString(t *testing.T) {
	for st, want := range map[LineState]string{Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M"} {
		if st.String() != want {
			t.Errorf("state %d string %q, want %q", st, st.String(), want)
		}
	}
	if InsertMRU.String() != "MRU" || InsertLRU.String() != "LRU" || InsertLRU1.String() != "LRU-1" {
		t.Error("InsertPos names wrong")
	}
}

func TestVictimAmong(t *testing.T) {
	c := smallCache()
	for i := uint64(0); i < 4; i++ {
		c.Insert(i*4, InsertMRU, Line{State: Exclusive}) // fills ways 0..3, LRU = way 0
	}
	// Restrict to ways 2,3: way with block 8 (way 2) is older than way 3.
	v := c.VictimAmong(0, func(w int) bool { return w >= 2 })
	if v != 2 {
		t.Fatalf("victim among ways>=2 = %d, want 2 (LRU of the allowed)", v)
	}
	// No allowed ways.
	if v := c.VictimAmong(0, func(w int) bool { return false }); v != -1 {
		t.Fatalf("victim among none = %d, want -1", v)
	}
	// Invalid allowed way is preferred.
	c.Invalidate(12) // way 3
	if v := c.VictimAmong(0, func(w int) bool { return w >= 2 }); v != 3 {
		t.Fatalf("victim = %d, want invalid way 3", v)
	}
}

func TestVictimDeadPrefersInvalidThenUnreused(t *testing.T) {
	c := smallCache()
	// Two valid lines (one reused), two invalid ways.
	c.Insert(0, InsertMRU, Line{State: Exclusive, Reused: true})
	c.Insert(4, InsertMRU, Line{State: Exclusive})
	w, ok := c.VictimDead(0)
	if !ok {
		t.Fatal("no dead victim despite invalid ways")
	}
	if c.Line(0, w).Valid() {
		t.Fatalf("dead victim way %d is valid; invalid ways exist", w)
	}
	// Fill the set: victims must be the unreused line.
	c.Insert(8, InsertMRU, Line{State: Exclusive, Reused: true})
	c.Insert(12, InsertMRU, Line{State: Exclusive, Reused: true})
	w, ok = c.VictimDead(0)
	if !ok {
		t.Fatal("no dead victim despite an unreused line")
	}
	if got := c.Line(0, w).Tag; got != 4 {
		t.Fatalf("dead victim is block %d, want the unreused block 4", got)
	}
}

func TestVictimDeadSecondChance(t *testing.T) {
	c := smallCache()
	for i := uint64(0); i < 4; i++ {
		c.Insert(i*4, InsertMRU, Line{State: Exclusive, Reused: true})
	}
	// All lines reused: rejection plus a wholesale reuse-bit clear.
	if _, ok := c.VictimDead(0); ok {
		t.Fatal("found a dead victim in a fully live set")
	}
	// Second attempt: the clear made every line eligible; LRU order applies.
	w, ok := c.VictimDead(0)
	if !ok {
		t.Fatal("second chance did not open the set")
	}
	if got := c.Line(0, w).Tag; got != 0 {
		t.Fatalf("second-chance victim %d, want LRU block 0", got)
	}
	// A line re-touched after the clear is protected again.
	c.Line(0, w).Reused = true
	w2, ok := c.VictimDead(0)
	if !ok || w2 == w {
		t.Fatalf("re-protected line still chosen (way %d, ok=%v)", w2, ok)
	}
}

func TestInsertWay(t *testing.T) {
	c := smallCache()
	for i := uint64(0); i < 4; i++ {
		c.Insert(i*4, InsertMRU, Line{State: Exclusive})
	}
	ev := c.InsertWay(16, 1, InsertMRU, Line{State: Exclusive, Spilled: true})
	if ev.Tag != 4 {
		t.Fatalf("InsertWay evicted %d, want the occupant of way 1 (block 4)", ev.Tag)
	}
	w, ok := c.Lookup(16)
	if !ok || w != 1 {
		t.Fatalf("block 16 at way %d ok=%v, want way 1", w, ok)
	}
	if !stackInvariant(c, 0) {
		t.Fatal("recency stack corrupted by InsertWay")
	}
	// MRU insertion means it is the last of the four to be evicted.
	st := c.RecencyStack(0)
	if st[0] != 1 {
		t.Fatalf("way 1 not MRU after InsertWay: stack %v", st)
	}
}
