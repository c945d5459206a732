// Differential verification of the packed cache kernel against the frozen
// reference implementation in internal/cachesim/refmodel.
//
// Both kernels are driven with identical operation sequences decoded from a
// byte stream: every operation's return values must match, and the full
// observable state — recency stacks, line contents, per-set statistics and
// lifetime totals — is compared after every operation. The fuzzer explores
// the op space from the seed corpus under testdata/fuzz; the property test
// replays long pseudo-random sequences on every plain `go test` run.
package cachesim_test

import (
	"testing"

	"ascc/internal/cachesim"
	"ascc/internal/cachesim/refmodel"
	"ascc/internal/rng"
)

// diffConfigs are the geometries the differential tests cycle through. They
// cover every kernel path: packed sets of 1..16 ways, reduced-way sets
// (Figure 1's way-disabling study: w of a cache's ways at its set count),
// and fully associative caches (one set) on both sides of the packed-width
// boundary, the wider ones on the wide fallback.
// Each name is its subtest's; the names keep their earlier
// <size>B_<ways>way_en<enabled>_fa<fully-assoc> form, so a reduced-way row
// is named after the cache whose ways it disables and a fully associative
// row carries fatrue.
var diffConfigs = []struct {
	name string
	cfg  cachesim.Config
}{
	{"256B_1way_en0_fafalse", cachesim.Config{SizeBytes: 4 * 64, Ways: 1, LineBytes: 64}},         // 4 sets x 1 way
	{"256B_2way_en0_fafalse", cachesim.Config{SizeBytes: 2 * 2 * 64, Ways: 2, LineBytes: 64}},     // 2 sets x 2 ways
	{"2048B_4way_en0_fafalse", cachesim.Config{SizeBytes: 8 * 4 * 64, Ways: 4, LineBytes: 64}},    // 8 sets x 4 ways (an L1 shape)
	{"2048B_8way_en0_fafalse", cachesim.Config{SizeBytes: 4 * 8 * 64, Ways: 8, LineBytes: 64}},    // 4 sets x 8 ways (the L2 shape)
	{"2048B_16way_en0_fafalse", cachesim.Config{SizeBytes: 2 * 16 * 64, Ways: 16, LineBytes: 64}}, // full packed width
	{"2048B_8way_en5_fafalse", cachesim.Config{SizeBytes: 4 * 5 * 64, Ways: 5, LineBytes: 64}},    // 5 of 8 ways, 4 sets
	{"2048B_16way_en3_fafalse", cachesim.Config{SizeBytes: 2 * 3 * 64, Ways: 3, LineBytes: 64}},   // 3 of 16 ways, 2 sets
	{"2048B_32way_en0_fafalse", cachesim.Config{SizeBytes: 32 * 64, Ways: 32, LineBytes: 64}},     // 1 set x 32 ways: wide path
	{"1280B_1way_en0_fatrue", cachesim.Config{SizeBytes: 20 * 64, Ways: 20, LineBytes: 64}},       // fully assoc, wide path
	{"768B_1way_en0_fatrue", cachesim.Config{SizeBytes: 12 * 64, Ways: 12, LineBytes: 64}},        // fully assoc, packed path
}

// pair drives the kernel under test and the oracle in lockstep.
type pair struct {
	t    *testing.T
	dut  *cachesim.Cache
	ref  *refmodel.Cache
	sets int
	ways int
	// scratch buffers for stack comparison (exercises AppendRecencyStack's
	// no-allocation contract as a side effect).
	dutStack, refStack []int
}

func newPair(t *testing.T, cfg cachesim.Config) *pair {
	dut := cachesim.New(cfg)
	ref := refmodel.New(cfg)
	if dut.NumSets() != ref.NumSets() || dut.Ways() != ref.Ways() {
		t.Fatalf("geometry mismatch: dut %d sets x %d ways, ref %d sets x %d ways",
			dut.NumSets(), dut.Ways(), ref.NumSets(), ref.Ways())
	}
	return &pair{
		t: t, dut: dut, ref: ref,
		sets:     dut.NumSets(),
		ways:     dut.Ways(),
		dutStack: make([]int, 0, dut.Ways()),
		refStack: make([]int, 0, dut.Ways()),
	}
}

// checkState compares every piece of observable cache state.
func (p *pair) checkState(op string) {
	p.t.Helper()
	for s := 0; s < p.sets; s++ {
		p.dutStack = p.dut.AppendRecencyStack(s, p.dutStack[:0])
		p.refStack = p.ref.AppendRecencyStack(s, p.refStack[:0])
		if len(p.dutStack) != len(p.refStack) {
			p.t.Fatalf("after %s: set %d stack lengths differ: dut %v ref %v", op, s, p.dutStack, p.refStack)
		}
		for i := range p.dutStack {
			if p.dutStack[i] != p.refStack[i] {
				p.t.Fatalf("after %s: set %d recency stacks differ: dut %v ref %v", op, s, p.dutStack, p.refStack)
			}
		}
		if ds, rs := p.dut.SetStatsFor(s), p.ref.SetStatsFor(s); ds != rs {
			p.t.Fatalf("after %s: set %d stats differ: dut %+v ref %+v", op, s, ds, rs)
		}
		for w := 0; w < p.ways; w++ {
			if dl, rl := *p.dut.Line(s, w), *p.ref.Line(s, w); dl != rl {
				p.t.Fatalf("after %s: line (%d,%d) differs: dut %+v ref %+v", op, s, w, dl, rl)
			}
		}
	}
	da, dh, dm := p.dut.Totals()
	ra, rh, rm := p.ref.Totals()
	if da != ra || dh != rh || dm != rm {
		p.t.Fatalf("after %s: totals differ: dut (%d,%d,%d) ref (%d,%d,%d)", op, da, dh, dm, ra, rh, rm)
	}
	if dv, rv := p.dut.ValidLines(), p.ref.ValidLines(); dv != rv {
		p.t.Fatalf("after %s: valid-line counts differ: dut %d ref %d", op, dv, rv)
	}
}

// opStream decodes operations from a byte cursor; it hands out zero once
// exhausted so every input is a valid (finite) program.
type opStream struct {
	data []byte
	pos  int
}

func (o *opStream) next() byte {
	if o.pos >= len(o.data) {
		return 0
	}
	b := o.data[o.pos]
	o.pos++
	return b
}

func (o *opStream) done() bool { return o.pos >= len(o.data) }

// proto builds an insertion prototype from two stream bytes. State may be
// Invalid: inserting an invalid line is how a policy models reserving a way
// without filling it, and it stresses the valid-mask bookkeeping.
func (o *opStream) proto() cachesim.Line {
	fl := o.next()
	return cachesim.Line{
		State:    cachesim.LineState(fl & 3),
		Dirty:    fl&4 != 0,
		Spilled:  fl&8 != 0,
		Prefetch: fl&16 != 0,
		Reused:   fl&32 != 0,
		Owner:    int16(o.next() & 3),
	}
}

// runDiff decodes data as an op sequence over cfg and drives both kernels,
// failing on the first observable divergence.
func runDiff(t *testing.T, cfg cachesim.Config, data []byte) {
	p := newPair(t, cfg)
	ops := &opStream{data: data}
	for !ops.done() {
		switch op := ops.next() % 10; op {
		case 0, 1: // Access (weighted x2: it dominates real traffic)
			blk := uint64(ops.next())
			dw, dh := p.dut.Access(blk)
			rw, rh := p.ref.Access(blk)
			if dw != rw || dh != rh {
				t.Fatalf("Access(%d): dut (%d,%v) ref (%d,%v)", blk, dw, dh, rw, rh)
			}
			p.checkState("Access")
		case 2: // Insert
			blk := uint64(ops.next())
			pos := cachesim.InsertPos(ops.next() % 3)
			pr := ops.proto()
			if de, re := p.dut.Insert(blk, pos, pr), p.ref.Insert(blk, pos, pr); de != re {
				t.Fatalf("Insert(%d,%v): evicted dut %+v ref %+v", blk, pos, de, re)
			}
			p.checkState("Insert")
		case 3: // InsertWay
			blk := uint64(ops.next())
			way := int(ops.next()) % p.ways
			pos := cachesim.InsertPos(ops.next() % 3)
			pr := ops.proto()
			if de, re := p.dut.InsertWay(blk, way, pos, pr), p.ref.InsertWay(blk, way, pos, pr); de != re {
				t.Fatalf("InsertWay(%d,%d,%v): evicted dut %+v ref %+v", blk, way, pos, de, re)
			}
			p.checkState("InsertWay")
		case 4: // Victim / VictimInSet (pure)
			blk := uint64(ops.next())
			if dv, rv := p.dut.Victim(blk), p.ref.Victim(blk); dv != rv {
				t.Fatalf("Victim(%d): dut %d ref %d", blk, dv, rv)
			}
		case 5: // VictimAmong with a deterministic allowed set
			si := int(ops.next()) % p.sets
			mask := ops.next()
			allowed := func(w int) bool { return mask>>(w%8)&1 == 1 }
			if dv, rv := p.dut.VictimAmong(si, allowed), p.ref.VictimAmong(si, allowed); dv != rv {
				t.Fatalf("VictimAmong(%d,%08b): dut %d ref %d", si, mask, dv, rv)
			}
		case 6: // VictimDead (mutates reuse bits when every line was reused)
			si := int(ops.next()) % p.sets
			dw, dok := p.dut.VictimDead(si)
			rw, rok := p.ref.VictimDead(si)
			if dw != rw || dok != rok {
				t.Fatalf("VictimDead(%d): dut (%d,%v) ref (%d,%v)", si, dw, dok, rw, rok)
			}
			p.checkState("VictimDead")
		case 7: // Invalidate
			blk := uint64(ops.next())
			dl, dok := p.dut.Invalidate(blk)
			rl, rok := p.ref.Invalidate(blk)
			if dl != rl || dok != rok {
				t.Fatalf("Invalidate(%d): dut (%+v,%v) ref (%+v,%v)", blk, dl, dok, rl, rok)
			}
			p.checkState("Invalidate")
		case 8: // Touch
			si := int(ops.next()) % p.sets
			way := int(ops.next()) % p.ways
			p.dut.Touch(si, way)
			p.ref.Touch(si, way)
			p.checkState("Touch")
		case 9: // coherence-style flag mutation through the Line pointer
			si := int(ops.next()) % p.sets
			way := int(ops.next()) % p.ways
			fl := ops.next()
			dl, rl := p.dut.Line(si, way), p.ref.Line(si, way)
			if *dl != *rl {
				t.Fatalf("Line(%d,%d): dut %+v ref %+v", si, way, *dl, *rl)
			}
			if dl.Valid() {
				// The coherence engine flips flags and moves between the
				// valid MESI states, but never invalidates through the
				// pointer (that is Invalidate's job) — mirror that here.
				st := cachesim.LineState(1 + fl&1)
				if fl&2 != 0 {
					st = cachesim.Modified
				}
				dl.State, rl.State = st, st
				dl.Dirty, rl.Dirty = fl&4 != 0, fl&4 != 0
				dl.Reused, rl.Reused = fl&8 != 0, fl&8 != 0
				dl.Prefetch, rl.Prefetch = fl&16 != 0, fl&16 != 0
			}
			p.checkState("LineMutate")
		}
	}
	p.checkState("final")
}

// FuzzKernelEquivalence fuzzes op sequences over all geometries: the first
// byte selects the configuration, the rest is the op program. Run bounded
// as a smoke test with
//
//	go test ./internal/cachesim -run '^$' -fuzz FuzzKernelEquivalence -fuzztime 10s
func FuzzKernelEquivalence(f *testing.F) {
	f.Add([]byte{3, 0, 10, 0, 20, 2, 30, 0, 5, 1, 0, 10})
	f.Add([]byte{0, 2, 7, 0, 17, 2, 7, 1, 33, 7, 7, 6, 0})
	f.Add([]byte{7, 0, 1, 0, 2, 0, 3, 2, 4, 0, 5, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// Full-state comparison after every op makes long programs slow;
		// capping the program keeps each exec bounded without losing
		// coverage (the interesting structure is in op interleaving, not
		// length).
		if len(data) > 4096 {
			data = data[:4096]
		}
		runDiff(t, diffConfigs[int(data[0])%len(diffConfigs)].cfg, data[1:])
	})
}

// TestKernelEquivalence replays long pseudo-random op sequences over every
// geometry on plain `go test` runs, so the differential check does not
// depend on anyone running the fuzzer.
func TestKernelEquivalence(t *testing.T) {
	for ci, dc := range diffConfigs {
		ci, cfg := ci, dc.cfg
		t.Run(dc.name, func(t *testing.T) {
			t.Parallel()
			r := rng.New(uint64(0xA5CC + ci))
			data := make([]byte, 20_000)
			for i := range data {
				data[i] = byte(r.Uint64())
			}
			runDiff(t, cfg, data)
		})
	}
}
