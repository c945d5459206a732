// Differential verification of CacheGroup: a group's members must be
// observably identical to N independently allocated caches driven with the
// same operations, and the group's cross-cache queries (HolderMask,
// LastCopy, InvalidateOthers, DemandAccess) must agree with the answer
// assembled from per-cache probes of the independent set — in broadcast
// mode, where the group asks each member, and in directory mode, where the
// coherence directory answers.
//
// The fuzzer explores op interleavings from the committed corpus under
// testdata/fuzz/FuzzGroupEquivalence; the replay test runs long
// pseudo-random programs on every plain `go test`.
package cachesim_test

import (
	"fmt"
	"math/bits"
	"testing"

	"ascc/internal/cachesim"
	"ascc/internal/rng"
)

// groupConfigs are the group geometries under test: the paper's 4x8 shape,
// 2- to 16-member groups with 4, 8 and 16 ways, a reduced-way group (5 of 8
// ways at the 8-way set count, Figure 1's way disabling), the 1-core
// degenerate group, and 64 members — the scaleout width and the holder-mask
// word limit. name is the geometry part of each subtest name, in its
// earlier <size>B_<ways>way_en<enabled> form: the reduced-way row is named
// after the cache whose ways it disables.
var groupConfigs = []struct {
	n    int
	name string
	cfg  cachesim.Config
}{
	{4, "2048B_8way_en0", cachesim.Config{SizeBytes: 4 * 8 * 64, Ways: 8, LineBytes: 64}},    // the L2 shape
	{2, "2048B_4way_en0", cachesim.Config{SizeBytes: 8 * 4 * 64, Ways: 4, LineBytes: 64}},    // 2 cores x 4 ways
	{1, "2048B_8way_en0", cachesim.Config{SizeBytes: 4 * 8 * 64, Ways: 8, LineBytes: 64}},    // degenerate group
	{8, "1024B_8way_en0", cachesim.Config{SizeBytes: 2 * 8 * 64, Ways: 8, LineBytes: 64}},    // 8 cores x 8 ways
	{5, "2048B_16way_en0", cachesim.Config{SizeBytes: 2 * 16 * 64, Ways: 16, LineBytes: 64}}, // 16-way members
	{3, "2048B_8way_en5", cachesim.Config{SizeBytes: 4 * 5 * 64, Ways: 5, LineBytes: 64}},    // 5 of 8 ways, 4 sets
	{16, "1024B_8way_en0", cachesim.Config{SizeBytes: 2 * 8 * 64, Ways: 8, LineBytes: 64}},   // many-core
	{64, "1024B_8way_en0", cachesim.Config{SizeBytes: 2 * 8 * 64, Ways: 8, LineBytes: 64}},   // holder-mask word limit
}

// groupPair drives a CacheGroup and n independent caches in lockstep.
type groupPair struct {
	t     *testing.T
	group *cachesim.CacheGroup
	solo  []*cachesim.Cache
	sets  int
	ways  int
	gs    []int // scratch recency stacks
	ss    []int
}

func newGroupPair(t *testing.T, n int, cfg cachesim.Config, directory bool) *groupPair {
	g := cachesim.NewGroup(n, cfg)
	if directory {
		g.EnableDirectory()
	}
	solo := make([]*cachesim.Cache, n)
	for i := range solo {
		solo[i] = cachesim.New(cfg)
	}
	m := g.Cache(0)
	if g.Size() != n || m.NumSets() != solo[0].NumSets() || m.Ways() != solo[0].Ways() {
		t.Fatalf("geometry mismatch: group %d members %d sets x %d ways, solo %d sets x %d ways",
			g.Size(), m.NumSets(), m.Ways(), solo[0].NumSets(), solo[0].Ways())
	}
	return &groupPair{
		t: t, group: g, solo: solo,
		sets: m.NumSets(), ways: m.Ways(),
		gs: make([]int, 0, m.Ways()), ss: make([]int, 0, m.Ways()),
	}
}

// checkMember compares every piece of observable state of group member c
// against its independent twin.
func (p *groupPair) checkMember(op string, c int) {
	p.t.Helper()
	gm, sm := p.group.Cache(c), p.solo[c]
	for s := 0; s < p.sets; s++ {
		p.gs = gm.AppendRecencyStack(s, p.gs[:0])
		p.ss = sm.AppendRecencyStack(s, p.ss[:0])
		if len(p.gs) != len(p.ss) {
			p.t.Fatalf("after %s: member %d set %d stack lengths differ: group %v solo %v", op, c, s, p.gs, p.ss)
		}
		for i := range p.gs {
			if p.gs[i] != p.ss[i] {
				p.t.Fatalf("after %s: member %d set %d stacks differ: group %v solo %v", op, c, s, p.gs, p.ss)
			}
		}
		if gst, sst := gm.SetStatsFor(s), sm.SetStatsFor(s); gst != sst {
			p.t.Fatalf("after %s: member %d set %d stats differ: group %+v solo %+v", op, c, s, gst, sst)
		}
		for w := 0; w < p.ways; w++ {
			if gl, sl := *gm.Line(s, w), *sm.Line(s, w); gl != sl {
				p.t.Fatalf("after %s: member %d line (%d,%d) differs: group %+v solo %+v", op, c, s, w, gl, sl)
			}
		}
	}
	ga, gh, gmi := gm.Totals()
	sa, sh, smi := sm.Totals()
	if ga != sa || gh != sh || gmi != smi {
		p.t.Fatalf("after %s: member %d totals differ: group (%d,%d,%d) solo (%d,%d,%d)", op, c, ga, gh, gmi, sa, sh, smi)
	}
	if gv, sv := gm.ValidLines(), sm.ValidLines(); gv != sv {
		p.t.Fatalf("after %s: member %d valid-line counts differ: group %d solo %d", op, c, gv, sv)
	}
}

func (p *groupPair) checkAll(op string) {
	p.t.Helper()
	for c := range p.solo {
		p.checkMember(op, c)
	}
}

// soloHolderMask assembles the holder bitmask the slow way: one Lookup per
// independent cache. This is the oracle both group modes must match.
func (p *groupPair) soloHolderMask(block uint64) uint64 {
	var m uint64
	for i, c := range p.solo {
		if _, ok := c.Lookup(block); ok {
			m |= 1 << uint(i)
		}
	}
	return m
}

// runGroupDiff decodes data as an op program over a group geometry and
// drives the group and the independent caches, failing on any divergence.
// With directory set, the group answers coherence queries from the
// coherence directory, so the same oracle checks pin directory maintenance
// (holder-bit adds/removes across insert, eviction, invalidation chains).
func runGroupDiff(t *testing.T, n int, cfg cachesim.Config, directory bool, data []byte) {
	p := newGroupPair(t, n, cfg, directory)
	ops := &opStream{data: data}
	for !ops.done() {
		c := int(ops.next()) % n
		gm, sm := p.group.Cache(c), p.solo[c]
		switch op := ops.next() % 10; op {
		case 0, 1: // Access (weighted: it dominates real traffic)
			blk := uint64(ops.next())
			gw, gh := gm.Access(blk)
			sw, sh := sm.Access(blk)
			if gw != sw || gh != sh {
				t.Fatalf("member %d Access(%d): group (%d,%v) solo (%d,%v)", c, blk, gw, gh, sw, sh)
			}
			p.checkMember("Access", c)
		case 2: // Insert
			blk := uint64(ops.next())
			pos := cachesim.InsertPos(ops.next() % 3)
			pr := ops.proto()
			if ge, se := gm.Insert(blk, pos, pr), sm.Insert(blk, pos, pr); ge != se {
				t.Fatalf("member %d Insert(%d,%v): evicted group %+v solo %+v", c, blk, pos, ge, se)
			}
			p.checkMember("Insert", c)
		case 3: // Invalidate
			blk := uint64(ops.next())
			gl, gok := gm.Invalidate(blk)
			sl, sok := sm.Invalidate(blk)
			if gl != sl || gok != sok {
				t.Fatalf("member %d Invalidate(%d): group (%+v,%v) solo (%+v,%v)", c, blk, gl, gok, sl, sok)
			}
			p.checkMember("Invalidate", c)
		case 4: // HolderMask against the per-cache oracle
			blk := uint64(ops.next())
			if gh, sh := p.group.HolderMask(blk), p.soloHolderMask(blk); gh != sh {
				t.Fatalf("HolderMask(%d): group %b solo %b", blk, gh, sh)
			}
		case 5: // LastCopy with the op's member as the exception
			blk := uint64(ops.next())
			want := p.soloHolderMask(blk)&^(1<<uint(c)) == 0
			if got := p.group.LastCopy(blk, c); got != want {
				t.Fatalf("LastCopy(%d,%d): group %v solo %v", blk, c, got, want)
			}
		case 6: // InvalidateOthers: the write-upgrade primitive
			blk := uint64(ops.next())
			want := p.soloHolderMask(blk) &^ (1 << uint(c))
			got := p.group.InvalidateOthers(blk, c)
			if got != want {
				t.Fatalf("InvalidateOthers(%d,%d): group %b solo %b", blk, c, got, want)
			}
			for m := want; m != 0; m &= m - 1 {
				p.solo[bits.TrailingZeros64(m)].Invalidate(blk)
			}
			p.checkAll("InvalidateOthers")
		case 8: // DemandAccess: access + peer probe vs Access + Lookups
			blk := uint64(ops.next())
			gw, gh, ghold, ghw := p.group.DemandAccess(c, blk)
			sw, sh := sm.Access(blk)
			if gw != sw || gh != sh {
				t.Fatalf("member %d DemandAccess(%d): group (%d,%v) solo (%d,%v)", c, blk, gw, gh, sw, sh)
			}
			shold, shw := uint64(0), -1
			if !sh {
				shold = p.soloHolderMask(blk) &^ (1 << uint(c))
				if shold != 0 {
					w, ok := p.solo[bits.TrailingZeros64(shold)].Lookup(blk)
					if !ok {
						t.Fatalf("solo holder lost block %d", blk)
					}
					shw = w
				}
			}
			if ghold != shold || ghw != shw {
				t.Fatalf("member %d DemandAccess(%d): group holders %b way %d, solo %b way %d",
					c, blk, ghold, ghw, shold, shw)
			}
			p.checkMember("DemandAccess", c)
		case 9: // HolderMask and LastCopy over a short run of blocks
			nb := 1 + int(ops.next())%4
			for i := 0; i < nb; i++ {
				blk := uint64(ops.next())
				want := p.soloHolderMask(blk)
				if got := p.group.HolderMask(blk); got != want {
					t.Fatalf("HolderMask(%d): group %b solo %b", blk, got, want)
				}
				if got, wantLC := p.group.LastCopy(blk, c), want&^(1<<uint(c)) == 0; got != wantLC {
					t.Fatalf("LastCopy(%d,%d): group %v solo %v", blk, c, got, wantLC)
				}
			}
			p.checkAll("HolderMask run")
		case 7: // Touch a resident way (keeps recency divergence visible)
			si := int(ops.next()) % p.sets
			way := int(ops.next()) % p.ways
			// Touch panics on ways outside the recency stack; only poke
			// ways both sides agree are tracked.
			p.gs = gm.AppendRecencyStack(si, p.gs[:0])
			found := false
			for _, w := range p.gs {
				if w == way {
					found = true
					break
				}
			}
			if !found {
				continue
			}
			gm.Touch(si, way)
			sm.Touch(si, way)
			p.checkMember("Touch", c)
		}
	}
	p.checkAll("final")
}

// FuzzGroupEquivalence fuzzes op programs over every group geometry: the
// first byte selects the configuration, the rest interleaves member ops with
// cross-cache queries. Run bounded as a smoke test with
//
//	go test ./internal/cachesim -run '^$' -fuzz FuzzGroupEquivalence -fuzztime 10s
func FuzzGroupEquivalence(f *testing.F) {
	f.Add([]byte{0, 0, 0, 10, 1, 0, 10, 2, 4, 10, 0, 6, 10, 3, 5, 10})
	f.Add([]byte{1, 0, 2, 7, 0, 2, 1, 1, 2, 7, 1, 2, 3, 7, 0, 4, 7})
	f.Add([]byte{4, 0, 0, 5, 1, 0, 5, 2, 0, 5, 3, 4, 5, 0, 6, 5, 2, 3, 5})
	f.Add([]byte{0x80, 0, 0, 10, 1, 0, 10, 2, 4, 10, 0, 6, 10, 3, 5, 10})
	f.Add([]byte{0x86, 0, 2, 9, 1, 2, 9, 2, 2, 9, 3, 2, 9, 4, 2, 9, 5, 2, 9, 0, 6, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// Member-state comparison after every op makes long programs slow;
		// the interesting structure is in interleaving, not length.
		if len(data) > 4096 {
			data = data[:4096]
		}
		// The high bit of the selector byte flips the group into directory
		// mode; both modes must match the per-cache oracle exactly.
		gc := groupConfigs[int(data[0]&0x7f)%len(groupConfigs)]
		runGroupDiff(t, gc.n, gc.cfg, data[0]&0x80 != 0, data[1:])
	})
}

// TestGroupEquivalence replays long pseudo-random programs over every group
// geometry on plain `go test` runs, so the group's differential check does
// not depend on anyone running the fuzzer.
func TestGroupEquivalence(t *testing.T) {
	for gi, gc := range groupConfigs {
		for _, directory := range []bool{false, true} {
			gi, gc, directory := gi, gc, directory
			mode := "broadcast"
			if directory {
				mode = "directory"
			}
			name := fmt.Sprintf("%dx_%s_%s", gc.n, gc.name, mode)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				r := rng.New(uint64(0x96CC + gi))
				data := make([]byte, 20_000)
				for i := range data {
					data[i] = byte(r.Uint64())
				}
				runGroupDiff(t, gc.n, gc.cfg, directory, data)
			})
		}
	}
}
