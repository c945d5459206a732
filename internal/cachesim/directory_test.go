// White-box tests for the coherence directory: hash-table mechanics
// (collision chains, backward-shift deletion, wrap-around), full occupancy
// at the holder-mask limit, maintenance against a map oracle under random
// group traffic, and the probe-cost benchmarks (broadcast per-member lookups
// vs directory lookup at 4/16/64 cores). The black-box differential wall
// lives in group_diff_test.go; FuzzDirectoryEquivalence in internal/cmp pins
// the full engine.
package cachesim

import (
	"fmt"
	"testing"

	"ascc/internal/rng"
)

// TestDirectoryChains drives a small table through add/remove sequences
// chosen to collide, against a map oracle, so linear probing and
// backward-shift deletion are checked directly — including removals from the
// middle of a probe chain, the case naive deletion breaks, and chains that
// wrap past the last slot.
func TestDirectoryChains(t *testing.T) {
	// Sized for 24 lines: 64 slots, so the 24-block oracle stays at or
	// below half load. Every block homes in the last 8 slots, so chains
	// are long and run over the end of the table into slot 0 and beyond.
	d := newDirectory(24)
	var blocks []uint64
	for b := uint64(0); len(blocks) < 24; b++ {
		if d.home(b) >= d.mask-7 {
			blocks = append(blocks, b)
		}
	}
	oracle := map[uint64]uint64{}
	r := rng.New(0xd1c7)
	wrapped := false
	for op := 0; op < 200_000; op++ {
		block := blocks[r.Uint64()%uint64(len(blocks))]
		member := int(r.Uint64() % 8)
		switch r.Uint64() % 3 {
		case 0, 1:
			d.add(block, member)
			oracle[block] |= 1 << uint(member)
		case 2:
			d.remove(block, member)
			if m := oracle[block] &^ (1 << uint(member)); m == 0 {
				delete(oracle, block)
			} else {
				oracle[block] = m
			}
		}
		if got, want := d.holders(block), oracle[block]; got != want {
			t.Fatalf("op %d: holders(%d) = %b, oracle %b", op, block, got, want)
		}
		for i := uint64(0); i <= d.mask; i++ {
			if e := *d.slot(i); e.holders != 0 && i < d.home(e.block) {
				wrapped = true
			}
		}
	}
	if !wrapped {
		t.Fatal("no live entry ever sat below its home slot: the wrap-around was not exercised")
	}
	if got, want := d.occupancy(), len(oracle); got != want {
		t.Fatalf("occupancy %d, oracle tracks %d blocks", got, want)
	}
	for block, want := range oracle {
		if got := d.holders(block); got != want {
			t.Fatalf("final holders(%d) = %b, oracle %b", block, got, want)
		}
	}
}

// TestDirectoryFullOccupancy fills every way of every member of a 64-member
// group — the holder-mask limit — with a distinct block, so the directory
// tracks exactly as many blocks as the group has lines: the most it can ever
// hold, which its sizing guarantees fits at half load.
func TestDirectoryFullOccupancy(t *testing.T) {
	const members, sets, ways = 64, 4, 8
	g := NewGroup(members, Config{SizeBytes: sets * ways * 64, Ways: ways, LineBytes: 64})
	g.EnableDirectory()
	// Block b lives in set b%sets; member c's blocks are c*sets*ways ..
	// (c+1)*sets*ways-1, so every block is distinct and each set row fills.
	for c := 0; c < members; c++ {
		for i := 0; i < sets*ways; i++ {
			g.Cache(c).Insert(uint64(c*sets*ways+i), InsertMRU, Line{State: Exclusive, Owner: int16(c)})
		}
		if got := g.Cache(c).ValidLines(); got != sets*ways {
			t.Fatalf("member %d holds %d lines, want %d", c, got, sets*ways)
		}
	}
	if got, want := g.dir.occupancy(), members*sets*ways; got != want {
		t.Fatalf("occupancy %d, want the group's %d lines", got, want)
	}
	for b := uint64(0); b < members*sets*ways+sets; b++ {
		want := uint64(0)
		if b < members*sets*ways {
			want = 1 << (b / (sets * ways))
		}
		if got := g.HolderMask(b); got != want {
			t.Fatalf("HolderMask(%d) = %b, want %b", b, got, want)
		}
	}
	for c := 0; c < members; c++ {
		for i := 0; i < sets*ways; i++ {
			if _, ok := g.Cache(c).Invalidate(uint64(c*sets*ways + i)); !ok {
				t.Fatalf("member %d: block %d not resident", c, c*sets*ways+i)
			}
		}
	}
	if got := g.dir.occupancy(); got != 0 {
		t.Fatalf("occupancy %d after invalidating everything, want 0", got)
	}
}

// TestEnableDirectoryIndexesExistingContents checks that flipping a
// populated group into directory mode indexes what is already resident.
func TestEnableDirectoryIndexesExistingContents(t *testing.T) {
	cfg := Config{SizeBytes: 4 * 8 * 64, Ways: 8, LineBytes: 64}
	g := NewGroup(4, cfg)
	for c := 0; c < 4; c++ {
		for b := uint64(0); b < 16; b += uint64(c + 1) {
			g.Cache(c).Insert(b, InsertMRU, Line{State: Shared, Owner: int16(c)})
		}
	}
	want := make(map[uint64]uint64)
	for c := 0; c < 4; c++ {
		g.Cache(c).ForEachLine(func(_, _ int, l *Line) { want[l.Tag] |= 1 << uint(c) })
	}
	g.EnableDirectory()
	if !g.DirectoryEnabled() {
		t.Fatal("directory not enabled")
	}
	for b := uint64(0); b < 64; b++ {
		if got := g.HolderMask(b); got != want[b] {
			t.Fatalf("HolderMask(%d) = %b after EnableDirectory, want %b", b, got, want[b])
		}
	}
}

// TestNewGroupRejectsOversizedGroups pins the uint64 holder-mask limit.
func TestNewGroupRejectsOversizedGroups(t *testing.T) {
	cfg := Config{SizeBytes: 2 * 8 * 64, Ways: 8, LineBytes: 64}
	defer func() {
		if recover() == nil {
			t.Fatal("NewGroup(65, ...) did not panic")
		}
	}()
	NewGroup(65, cfg)
}

// TestProbeCountParity pins that directory and broadcast mode count the same
// number of coherence probes for the same query sequence — the property that
// makes the scaling table's probe column comparable across modes.
func TestProbeCountParity(t *testing.T) {
	cfg := Config{SizeBytes: 8 * 8 * 64, Ways: 8, LineBytes: 64}
	run := func(directory bool) (probes uint64) {
		g := NewGroup(8, cfg)
		if directory {
			g.EnableDirectory()
		}
		r := rng.New(0x9e37)
		for op := 0; op < 50_000; op++ {
			c := int(r.Uint64() % 8)
			block := r.Uint64() % 512
			switch r.Uint64() % 5 {
			case 0:
				if _, hit, holders, _ := g.DemandAccess(c, block); !hit {
					st := Shared
					if holders == 0 {
						st = Exclusive
					}
					g.Cache(c).Insert(block, InsertMRU, Line{State: st, Owner: int16(c)})
				}
			case 1:
				g.HolderMask(block)
			case 2:
				g.DemandAccess(c, block)
			case 3:
				g.InvalidateOthers(block, c)
			case 4:
				g.LastCopy(block, c)
			}
		}
		return g.Probes()
	}
	bp, dp := run(false), run(true)
	if bp != dp || bp == 0 {
		t.Fatalf("probe counts differ: broadcast %d, directory %d", bp, dp)
	}
}

// benchGroup builds an n-member group with a mixed-sharing resident
// population: roughly half the blocks private, the rest held by 2..5 members.
func benchGroup(n int, directory bool) (*CacheGroup, []uint64) {
	cfg := Config{SizeBytes: 512 * 8 * 64, Ways: 8, LineBytes: 64}
	g := NewGroup(n, cfg)
	if directory {
		g.EnableDirectory()
	}
	r := rng.New(uint64(0xbe * n))
	blocks := make([]uint64, 4096)
	for i := range blocks {
		b := r.Uint64() >> 16
		blocks[i] = b
		holders := 1 + int(r.Uint64()%5)
		for h := 0; h < holders; h++ {
			c := int(r.Uint64() % uint64(n))
			g.Cache(c).Insert(b, InsertMRU, Line{State: Shared, Owner: int16(c)})
		}
	}
	return g, blocks
}

// BenchmarkCoherenceProbe measures one HolderMask query — the primitive
// under every miss, eviction and upgrade — in broadcast vs directory mode as
// the group grows. The acceptance bar for the scaleout bench block: the
// 64-core directory probe costs at most 2x the 4-core broadcast probe.
func BenchmarkCoherenceProbe(b *testing.B) {
	for _, mode := range []string{"broadcast", "directory"} {
		for _, n := range []int{4, 16, 64} {
			g, blocks := benchGroup(n, mode == "directory")
			b.Run(fmt.Sprintf("%s-%dcores", mode, n), func(b *testing.B) {
				var sink uint64
				for i := 0; i < b.N; i++ {
					sink += g.HolderMask(blocks[i&4095])
				}
				benchSink = sink
			})
		}
	}
}

var benchSink uint64
