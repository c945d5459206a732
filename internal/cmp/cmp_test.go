package cmp

import (
	"errors"
	"reflect"
	"testing"

	"ascc/internal/cachesim"
	"ascc/internal/policies"
	"ascc/internal/trace"
	"ascc/internal/workload"
)

// scriptGen replays a fixed reference pattern forever.
type scriptGen struct {
	name string
	refs []trace.Ref
	i    int
}

func (g *scriptGen) Name() string { return g.name }
func (g *scriptGen) Next() trace.Ref {
	r := g.refs[g.i%len(g.refs)]
	g.i++
	return r
}
func (g *scriptGen) NextBatch(buf []trace.Ref) {
	for i := range buf {
		buf[i] = g.Next()
	}
}

// loopRefs builds a cyclic read loop over n blocks that all map to L2 set
// `set` of a cache with `sets` sets (block = set + i*sets), with the given
// instruction gap.
func loopRefs(set, sets, n int, gap int32) []trace.Ref {
	refs := make([]trace.Ref, n)
	for i := range refs {
		refs[i] = trace.Ref{Addr: uint64(set+i*sets) * 32, Gap: gap}
	}
	return refs
}

// pinL1 follows every reference of refs with three references to blocks of
// L2 set 3 (of 4) that stay resident in the one-set 4-way tinyParams L1.
// That leaves refs one L1 way, so each reference to a block other than the
// one before it misses the L1 and reaches the L2. The pinned blocks lie in
// a region of their own per core, so no two cores share them.
func pinL1(refs []trace.Ref, core int) []trace.Ref {
	out := make([]trace.Ref, 0, 4*len(refs))
	for _, r := range refs {
		out = append(out, r)
		for k := uint64(0); k < 3; k++ {
			out = append(out, trace.Ref{Addr: (uint64(core+1)<<16 + 3 + 4*k) * 32})
		}
	}
	return out
}

// tinyParams is a small machine for fast, precise tests:
// L1 = 128 B / 4-way (1 set), L2 = 512 B / 4-way (4 sets).
func tinyParams(cores int) Params {
	return Params{
		Cores:             cores,
		L1:                cachesim.Config{SizeBytes: 128, Ways: cachesim.L1Ways, LineBytes: 32},
		L2:                cachesim.Config{SizeBytes: 512, Ways: 4, LineBytes: 32},
		L2LocalHitCycles:  9,
		L2RemoteHitCycles: 25,
		MemLatencyCycles:  460,
		BusOccupancy:      0,
		MemOccupancy:      0,
	}
}

// newASCC builds the published ASCC design point (per-set counters,
// minimum-SSL receiver, SABIP, swapping) through the production
// constructors.
func newASCC(caches, sets, assoc int, seed uint64) *policies.ASCC {
	cfg, _ := policies.Published("ASCC", caches, sets, assoc, seed)
	return policies.NewASCCVariant("ASCC", cfg)
}

func evenTiming(cores int) []CoreTiming {
	t := make([]CoreTiming, cores)
	for i := range t {
		t[i] = CoreTiming{BaseCPI: 1, Overlap: 0.5}
	}
	return t
}

func TestNewValidation(t *testing.T) {
	p := tinyParams(2)
	gens := []trace.Generator{
		&scriptGen{name: "a", refs: loopRefs(0, 4, 2, 3)},
		&scriptGen{name: "b", refs: loopRefs(1, 4, 2, 3)},
	}
	if _, err := New(p, gens[:1], evenTiming(2), policies.NewBaseline()); err == nil {
		t.Fatal("mismatched generator count accepted")
	}
	if _, err := New(p, gens, evenTiming(2), nil); err == nil {
		t.Fatal("nil policy accepted")
	}
	bad := p
	bad.L1.LineBytes = 64
	if _, err := New(bad, gens, evenTiming(2), policies.NewBaseline()); err == nil {
		t.Fatal("mismatched line sizes accepted")
	}
	if _, err := New(p, gens, evenTiming(2), policies.NewBaseline()); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// TestValidateParallelParams pins the machine-description core-count
// limits — up to 64 cores, the width of the directory's holder mask — the
// one L1 associativity the burst kernel runs, and the one core an L2 wider
// than the packed recency word runs on, each rejected by name.
func TestValidateParallelParams(t *testing.T) {
	base := tinyParams(4)
	wideL2 := cachesim.Config{SizeBytes: 32 * 32, Ways: 32, LineBytes: 32} // one set of 32 ways
	cases := []struct {
		name string
		mod  func(*Params)
		ok   bool
		is   error // when set, the error must wrap it
	}{
		{"default", func(p *Params) {}, true, nil},
		{"max_cores", func(p *Params) { p.Cores = 64 }, true, nil},
		{"over_64_cores", func(p *Params) { p.Cores = 65 }, false, nil},
		{"l1_2way", func(p *Params) { p.L1 = cachesim.Config{SizeBytes: 128, Ways: 2, LineBytes: 32} }, false, ErrL1Ways},
		{"wide_l2_one_core", func(p *Params) { p.Cores, p.L2 = 1, wideL2 }, true, nil},
		{"wide_l2_two_cores", func(p *Params) { p.Cores, p.L2 = 2, wideL2 }, false, ErrWideL2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := base
			tc.mod(&p)
			err := p.Validate()
			if tc.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("invalid params accepted")
			}
			if tc.is != nil && !errors.Is(err, tc.is) {
				t.Fatalf("error %v does not wrap %v", err, tc.is)
			}
		})
	}
}

func TestAccessConservation(t *testing.T) {
	// Local hits + remote hits + memory fills must equal L2 demand accesses.
	p := tinyParams(2)
	gens := []trace.Generator{
		&scriptGen{name: "a", refs: loopRefs(0, 4, 8, 2)},
		&scriptGen{name: "b", refs: loopRefs(1, 4, 3, 2)},
	}
	sys, err := New(p, gens, evenTiming(2), policies.NewBaseline())
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run(0, 5000)
	for i, c := range res.Cores {
		if c.L2Accesses != c.L2LocalHits+c.L2RemoteHits+c.L2MemFills {
			t.Errorf("core %d: %d accesses != %d + %d + %d", i,
				c.L2Accesses, c.L2LocalHits, c.L2RemoteHits, c.L2MemFills)
		}
		if c.Instructions < 5000 {
			t.Errorf("core %d committed %d instructions, want >= 5000", i, c.Instructions)
		}
		if c.Cycles <= 0 {
			t.Errorf("core %d has non-positive cycles", i)
		}
	}
}

func TestBaselineMultiprogrammedHasNoRemoteHits(t *testing.T) {
	// Disjoint address spaces, no spilling: nothing can hit remotely.
	p := tinyParams(2)
	gens := []trace.Generator{
		&scriptGen{name: "a", refs: loopRefs(0, 4, 8, 2)},
		&scriptGen{name: "b", refs: []trace.Ref{{Addr: 1 << 20, Gap: 2}}},
	}
	sys, _ := New(p, gens, evenTiming(2), policies.NewBaseline())
	res := sys.Run(0, 5000)
	for i, c := range res.Cores {
		if c.L2RemoteHits != 0 || c.SpillsOut != 0 || c.SpillsIn != 0 {
			t.Errorf("core %d: remote=%d spillsOut=%d spillsIn=%d under baseline", i,
				c.L2RemoteHits, c.SpillsOut, c.SpillsIn)
		}
	}
}

func TestInclusionInvariant(t *testing.T) {
	p := tinyParams(2)
	gens := []trace.Generator{
		&scriptGen{name: "a", refs: loopRefs(0, 4, 8, 1)},
		&scriptGen{name: "b", refs: loopRefs(2, 4, 6, 1)},
	}
	sys, _ := New(p, gens, evenTiming(2), newASCC(2, 4, 4, 1))
	sys.Run(0, 3000)
	// Every valid L1 line must be present in the same core's L2.
	for c := 0; c < 2; c++ {
		sys.l1s[c].ForEachLine(func(si, w int, l *cachesim.Line) {
			if _, ok := sys.l2s[c].Lookup(l.Tag); !ok {
				t.Errorf("core %d: L1 line %#x not in its L2 (inclusion violated)", c, l.Tag)
			}
		})
	}
}

func TestDirtySingleCopyInvariant(t *testing.T) {
	// A dirty line must exist in exactly one L2 (MESI single-writer).
	p := tinyParams(2)
	w := []trace.Ref{
		{Addr: 0, Write: true, Gap: 1}, {Addr: 128, Gap: 1}, {Addr: 256, Write: true, Gap: 1},
		{Addr: 32, Gap: 1}, {Addr: 64, Write: true, Gap: 1}, {Addr: 384, Gap: 1},
	}
	gens := []trace.Generator{
		&scriptGen{name: "a", refs: w},
		&scriptGen{name: "b", refs: w}, // same addresses: real sharing
	}
	sys, _ := New(p, gens, evenTiming(2), policies.NewBaseline())
	sys.Run(0, 3000)
	count := map[uint64]int{}
	for c := 0; c < 2; c++ {
		sys.l2s[c].ForEachLine(func(si, wy int, l *cachesim.Line) {
			if l.Dirty {
				count[l.Tag]++
			}
		})
	}
	for tag, n := range count {
		if n > 1 {
			t.Errorf("dirty block %#x present in %d caches", tag, n)
		}
	}
}

func TestSharedReadsReplicate(t *testing.T) {
	// Two cores reading the same small set of lines must end up with remote
	// hits (first access) and then local hits on their own S copies.
	p := tinyParams(2)
	refs := []trace.Ref{{Addr: 0, Gap: 1}, {Addr: 32, Gap: 1}, {Addr: 64, Gap: 1}}
	gens := []trace.Generator{
		&scriptGen{name: "a", refs: refs},
		&scriptGen{name: "b", refs: refs},
	}
	sys, _ := New(p, gens, evenTiming(2), policies.NewBaseline())
	res := sys.Run(0, 2000)
	remote := res.Cores[0].L2RemoteHits + res.Cores[1].L2RemoteHits
	if remote == 0 {
		t.Fatal("no remote hits on a shared read workload")
	}
	// Steady state: both caches hold S copies, so L1/L2 local hits dominate.
	local := res.Cores[0].L1Hits + res.Cores[1].L1Hits
	if local == 0 {
		t.Fatal("shared lines never became locally cached")
	}
}

func TestASCCSpillsFromTakerToGiver(t *testing.T) {
	// Core 0 thrashes set 0 with 8 blocks (> 4 ways), past its L1
	// (pinL1); core 1 only touches set 2. Under ASCC core 0's set 0
	// saturates and spills into core 1's idle set 0; the spilled lines
	// then serve remote hits.
	p := tinyParams(2)
	mk := func() []trace.Generator {
		return []trace.Generator{
			&scriptGen{name: "taker", refs: pinL1(loopRefs(0, 4, 8, 2), 0)},
			&scriptGen{name: "giver", refs: loopRefs(2, 4, 2, 2)},
		}
	}
	base, _ := New(tinyParams(2), mk(), evenTiming(2), policies.NewBaseline())
	baseRes := base.Run(0, 20000)

	sys, _ := New(p, mk(), evenTiming(2), newASCC(2, 4, 4, 1))
	res := sys.Run(0, 20000)

	if res.Cores[0].SpillsOut == 0 {
		t.Fatal("ASCC never spilled from the thrashing cache")
	}
	if res.Cores[0].L2RemoteHits+res.Cores[0].Swaps == 0 {
		t.Fatal("spilled lines never produced remote hits or swaps")
	}
	offChipPKI := func(c CoreStats) float64 { return float64(c.OffChip) / float64(c.Instructions) * 1000 }
	if got, want := offChipPKI(res.Cores[0]), offChipPKI(baseRes.Cores[0]); got >= want {
		t.Fatalf("ASCC off-chip MPKI %.2f not better than baseline %.2f", got, want)
	}
	if res.Cores[0].CPI() >= baseRes.Cores[0].CPI() {
		t.Fatalf("ASCC CPI %.3f not better than baseline %.3f", res.Cores[0].CPI(), baseRes.Cores[0].CPI())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Results {
		gens, profs, err := workload.BuildMix([]int{445, 456}, 42, 8)
		if err != nil {
			t.Fatal(err)
		}
		timing := make([]CoreTiming, 2)
		for i, pr := range profs {
			timing[i] = CoreTiming{BaseCPI: pr.BaseCPI, Overlap: pr.Overlap}
		}
		sys, err := New(DefaultParams(2, 8), gens, timing, newASCC(2, 512, 8, 7))
		if err != nil {
			t.Fatal(err)
		}
		return sys.Run(5000, 40000)
	}
	a, b := run(), run()
	for i := range a.Cores {
		if a.Cores[i] != b.Cores[i] {
			t.Fatalf("run not deterministic: core %d %+v vs %+v", i, a.Cores[i], b.Cores[i])
		}
	}
}

// TestReleaseRecyclesStorage: both machines, once run and released, hand
// their cache storage to the next system of their geometry, which must
// simulate exactly what the released one did; a released system refuses to
// run, and releasing twice is a no-op.
func TestReleaseRecyclesStorage(t *testing.T) {
	build := func(shared bool) *System {
		gens, profs, err := workload.BuildMix([]int{445, 456}, 42, 8)
		if err != nil {
			t.Fatal(err)
		}
		timing := make([]CoreTiming, 2)
		for i, pr := range profs {
			timing[i] = CoreTiming{BaseCPI: pr.BaseCPI, Overlap: pr.Overlap}
		}
		var sys *System
		if shared {
			sys, err = NewShared(DefaultParams(2, 8), gens, timing)
		} else {
			sys, err = New(DefaultParams(2, 8), gens, timing, newASCC(2, 512, 8, 7))
		}
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	for _, shared := range []bool{false, true} {
		first := build(shared)
		want := first.Run(5000, 40000)
		first.Release()
		first.Release()
		if got := build(shared).Run(5000, 40000); !reflect.DeepEqual(got, want) {
			t.Fatalf("shared=%v: system on released storage\n%+v\nwant\n%+v", shared, got, want)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("shared=%v: Run on a released System did not panic", shared)
				}
			}()
			first.Run(5000, 40000)
		}()
	}
}

func TestWritebacksHappen(t *testing.T) {
	// A write-heavy stream larger than the L2 must produce dirty
	// writebacks.
	p := tinyParams(1)
	refs := make([]trace.Ref, 64)
	for i := range refs {
		refs[i] = trace.Ref{Addr: uint64(i) * 32, Write: true, Gap: 2}
	}
	gens := []trace.Generator{&scriptGen{name: "w", refs: refs}}
	sys, _ := New(p, gens, evenTiming(1), policies.NewBaseline())
	res := sys.Run(0, 5000)
	if res.Cores[0].Writebacks == 0 {
		t.Fatal("no writebacks from a write stream exceeding the L2")
	}
	if res.Cores[0].OffChip <= res.Cores[0].L2MemFills {
		t.Fatal("off-chip count does not include writebacks")
	}
}

func TestStatsFreezeAtQuota(t *testing.T) {
	// A fast core freezes at its quota while the slow core keeps going; the
	// frozen instruction count must be close to the quota, not the total.
	p := tinyParams(2)
	gens := []trace.Generator{
		&scriptGen{name: "fast", refs: []trace.Ref{{Addr: 0, Gap: 0}}},
		&scriptGen{name: "slow", refs: []trace.Ref{{Addr: 1 << 20, Gap: 99}}},
	}
	timing := []CoreTiming{{BaseCPI: 0.5, Overlap: 0.1}, {BaseCPI: 2, Overlap: 1}}
	sys, _ := New(p, gens, timing, policies.NewBaseline())
	res := sys.Run(0, 10000)
	for i, c := range res.Cores {
		if c.Instructions < 10000 || c.Instructions > 10000+100 {
			t.Errorf("core %d frozen at %d instructions, want ~10000", i, c.Instructions)
		}
	}
}

func TestWarmupDiscardsColdMisses(t *testing.T) {
	// With warmup, a loop fitting in the L2 should measure (almost) no
	// memory fills; without warmup the cold misses show.
	p := tinyParams(1)
	mk := func() []trace.Generator {
		return []trace.Generator{&scriptGen{name: "fit", refs: loopRefs(0, 4, 3, 2)}}
	}
	cold, _ := New(p, mk(), evenTiming(1), policies.NewBaseline())
	coldRes := cold.Run(0, 3000)
	warm, _ := New(p, mk(), evenTiming(1), policies.NewBaseline())
	warmRes := warm.Run(1000, 3000)
	if warmRes.Cores[0].L2MemFills >= coldRes.Cores[0].L2MemFills {
		t.Fatalf("warmup did not reduce cold misses: %d vs %d",
			warmRes.Cores[0].L2MemFills, coldRes.Cores[0].L2MemFills)
	}
	if warmRes.Cores[0].L2MemFills != 0 {
		t.Fatalf("fitting loop still misses after warmup: %d", warmRes.Cores[0].L2MemFills)
	}
}

func TestPrefetcherReducesStreamMisses(t *testing.T) {
	p := tinyParams(1)
	mkStream := func() []trace.Generator {
		refs := make([]trace.Ref, 4096)
		for i := range refs {
			refs[i] = trace.Ref{Addr: uint64(i) * 32, Gap: 3}
		}
		return []trace.Generator{&scriptGen{name: "stream", refs: refs}}
	}
	base, _ := New(p, mkStream(), evenTiming(1), policies.NewBaseline())
	baseRes := base.Run(0, 8000)

	pp := p
	pp.Prefetch = true
	pf, _ := New(pp, mkStream(), evenTiming(1), policies.NewBaseline())
	pfRes := pf.Run(0, 8000)

	if pfRes.Cores[0].PrefIssued == 0 || pfRes.Cores[0].PrefUseful == 0 {
		t.Fatalf("prefetcher idle on a pure stream: %+v", pfRes.Cores[0])
	}
	if pfRes.Cores[0].L2MemFills >= baseRes.Cores[0].L2MemFills {
		t.Fatalf("prefetching did not reduce demand fills: %d vs %d",
			pfRes.Cores[0].L2MemFills, baseRes.Cores[0].L2MemFills)
	}
}

func TestMemoryPortContentionAddsLatency(t *testing.T) {
	// Two streaming cores over a busy memory port must see queueing delay.
	p := tinyParams(2)
	p.MemOccupancy = 64
	mk := func(base uint64) trace.Generator {
		refs := make([]trace.Ref, 1024)
		for i := range refs {
			refs[i] = trace.Ref{Addr: base + uint64(i)*32, Gap: 0}
		}
		return &scriptGen{name: "s", refs: refs}
	}
	sys, _ := New(p, []trace.Generator{mk(0), mk(1 << 30)}, evenTiming(2), policies.NewBaseline())
	res := sys.Run(0, 2000)
	if res.Cores[0].QueueDelay+res.Cores[1].QueueDelay == 0 {
		t.Fatal("no queueing delay despite saturated memory port")
	}
}

func TestCPIAndAMLAccounting(t *testing.T) {
	// Single reference pattern with known outcome: all L2 accesses miss to
	// memory with no contention => AML == MemLatencyCycles.
	p := tinyParams(1)
	refs := make([]trace.Ref, 8192)
	for i := range refs {
		refs[i] = trace.Ref{Addr: uint64(i) * 64, Gap: 9} // stride 2 blocks: no L1 reuse
	}
	gens := []trace.Generator{&scriptGen{name: "m", refs: refs}}
	sys, _ := New(p, gens, []CoreTiming{{BaseCPI: 1, Overlap: 0.5}}, policies.NewBaseline())
	res := sys.Run(0, 20000)
	c := res.Cores[0]
	if c.AML() != 460 {
		t.Fatalf("AML = %v, want 460 (all memory)", c.AML())
	}
	// CPI = 1 (base) + stalls: each ref is 10 instructions, stall 460*0.5.
	wantCPI := 1.0 + 460.0*0.5/10.0
	if got := c.CPI(); got < wantCPI*0.95 || got > wantCPI*1.05 {
		t.Fatalf("CPI = %v, want ~%v", got, wantCPI)
	}
	if c.MPKI() == 0 || c.OffChip == 0 {
		t.Fatal("MPKI accounting broken")
	}
}

func TestResultsAggregates(t *testing.T) {
	r := Results{Cores: []CoreStats{
		{OffChip: 10},
		{OffChip: 7},
	}}
	if r.TotalOffChip() != 17 {
		t.Fatalf("TotalOffChip = %d", r.TotalOffChip())
	}
}

// TestSharedSystemRuns runs a 2-core mix on the shared-LLC machine and pins
// what NewShared derives from the private Params: the aggregate capacity,
// the banked hit latency (18 cycles at 2 cores, 36 at 4) and the accessors
// that only mean something on the private machine.
func TestSharedSystemRuns(t *testing.T) {
	p := DefaultParams(2, 8)
	gens, profs, err := workload.BuildMix([]int{445, 456}, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	timing := make([]CoreTiming, 2)
	for i, pr := range profs {
		timing[i] = CoreTiming{BaseCPI: pr.BaseCPI, Overlap: pr.Overlap}
	}
	sys, err := NewShared(p, gens, timing)
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run(2000, 20000)
	if res.Policy != "shared-LLC" {
		t.Fatalf("policy name %q", res.Policy)
	}
	for i, c := range res.Cores {
		if c.L2Accesses != c.L2LocalHits+c.L2MemFills {
			t.Errorf("core %d: shared conservation broken: %+v", i, c)
		}
		if c.Instructions < 20000 {
			t.Errorf("core %d under quota", i)
		}
	}
	if got, want := sys.L2(1).Config().SizeBytes, 2*p.L2.SizeBytes; got != want || sys.L2(0) != sys.L2(1) {
		t.Errorf("L2(i) = %d B (shared %v), want the one %d B aggregate", got, sys.L2(0) == sys.L2(1), want)
	}
	if sys.Policy() != nil || sys.CoherenceProbes() != 0 {
		t.Errorf("shared machine reports policy %v and %d coherence probes", sys.Policy(), sys.CoherenceProbes())
	}
	// The shared hit latency must follow the ~2x rule for 2 cores, ~4x for 4.
	for _, tc := range []struct {
		cores int
		want  float64
	}{{1, 18}, {2, 18}, {4, 36}} {
		gens := make([]trace.Generator, tc.cores)
		for i := range gens {
			gens[i] = &scriptGen{name: "hit", refs: []trace.Ref{{}}}
		}
		s, err := NewShared(DefaultParams(tc.cores, 8), gens, evenTiming(tc.cores))
		if err != nil {
			t.Fatal(err)
		}
		if got := s.p.L2LocalHitCycles; got != tc.want {
			t.Errorf("%d-core shared hit latency %v, want %v", tc.cores, got, tc.want)
		}
	}
}

func TestDefaultParamsScaling(t *testing.T) {
	p1 := DefaultParams(4, 1)
	if p1.L2.SizeBytes != 1024*1024 || p1.L1.SizeBytes != 32*1024 {
		t.Fatalf("scale-1 geometry wrong: %+v", p1)
	}
	p8 := DefaultParams(4, 8)
	if p8.L2.SizeBytes != 128*1024 || p8.L1.SizeBytes != 4*1024 {
		t.Fatalf("scale-8 geometry wrong: %+v", p8)
	}
	if err := p8.Validate(); err != nil {
		t.Fatal(err)
	}
	if cachesim.New(p8.L2).NumSets() != 512 {
		t.Fatal("scale-8 L2 should have 512 sets")
	}
}
