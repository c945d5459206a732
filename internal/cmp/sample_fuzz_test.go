package cmp

import (
	"reflect"
	"testing"

	"ascc/internal/cachesim"
	"ascc/internal/coop"
	"ascc/internal/policies"
	"ascc/internal/trace"
)

// sampleFuzzParams is the sampling fuzz machine: L1 = 1 KiB / 4-way (8 sets,
// so the sample granule is 8 residues and denominators 2 and 4 both divide
// it), L2 = 4 KiB / 4-way (32 sets). Nonzero port occupancies keep the bus
// and memory queues in play. SyncSlack stays 0, so multi-core sampled runs
// run ahead of the frontier like full-fidelity ones.
func sampleFuzzParams(cores int) Params {
	p := tinyParams(cores)
	p.L1 = cachesim.Config{SizeBytes: 1024, Ways: cachesim.L1Ways, LineBytes: 32}
	p.L2 = cachesim.Config{SizeBytes: 4096, Ways: 4, LineBytes: 32}
	p.BusOccupancy = 2
	p.MemOccupancy = 8
	return p
}

// samplePolicy builds the full-geometry policy variant `kind%3` — both arms
// construct it identically (same seeds, same full set count), so any state
// divergence can only come from the engines or the set translation.
func samplePolicy(kind, cores, sets, ways int) coop.Policy {
	switch kind % 3 {
	case 1:
		cfg := policies.AVGCCDefaultConfig(cores, sets, ways, 1)
		cfg.ResizePeriod = 50
		return policies.NewASCCVariant("AVGCC", cfg)
	case 2:
		return policies.NewDSR(cores, sets, ways, 1)
	}
	return policies.NewBaseline()
}

// FuzzSampleEquivalence is the exactness wall for the set-sampled fast path
// (DESIGN.md §16). Two arms consume the same filtered reference stream: the
// sampled arm runs the compact 1/den machine through the run-to-event engine
// against spec.View (filter + gap merge + address rewrite); the oracle arm
// runs the frozen per-reference stepping on the FULL geometry against
// spec.FilterView (same filter and gap merge, original addresses). The
// sample-closure argument says these are the same computation under an
// injective renaming of sets and blocks, so the wall demands bit-identical
// raw results, core clocks, batch cursors, and complete per-set cache state
// (tags compared through UnrewriteBlock) — and that the oracle's unsampled
// sets saw zero traffic, which is the filter doing its job. The inputs
// vary the denominator, core count, policy (baseline / AVGCC with a short
// resize period / DSR), warmup cut, and per-core scripts over a 64-block
// space with stores and variable instruction gaps.
func FuzzSampleEquivalence(f *testing.F) {
	f.Add([]byte("sample-closure-seed"))
	// Leader traffic: single core, AVGCC, den=4 (residues {0,1}) — every
	// reference lands in a monitor residue, driving the resize machinery
	// through the translation wrapper.
	f.Add([]byte{
		0, 1, 1, 9, 1,
		0, 1, 0, 1, 2, 1, 8, 3, 0, 9, 1, 1, 16, 0, 0, 17, 5, 0,
		24, 1, 1, 25, 2, 0, 32, 1, 0, 33, 1, 1, 40, 2, 0, 41, 1, 0,
	})
	// Cross-core sharing: three cores, DSR, den=2, overlapping blocks so
	// remote hits, spills and invalidations cross the sampled directory.
	f.Add([]byte{
		2, 0, 2, 40, 3,
		4, 1, 1, 12, 1, 0, 20, 1, 0, 4, 2, 1, 12, 2, 0, 20, 2, 1,
		4, 1, 0, 12, 1, 1, 20, 1, 0, 4, 2, 0, 12, 2, 1, 20, 2, 0,
		4, 1, 1, 12, 1, 0, 20, 1, 1, 4, 2, 1, 12, 2, 0, 20, 2, 1,
	})
	// Quota/resize boundaries: two cores, AVGCC, warmup on, large gaps so
	// the instruction quota lands mid-gap and the merged-gap accounting at
	// the warmup and measure cuts is exercised.
	f.Add([]byte{
		1, 1, 1, 5, 5,
		0, 7, 0, 8, 7, 1, 16, 7, 0, 24, 7, 1, 32, 7, 0, 40, 7, 1,
		1, 6, 1, 9, 6, 0, 17, 6, 1, 25, 6, 0, 33, 6, 1, 41, 6, 0,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			t.Skip()
		}
		cores := 1 + int(data[0]%3)
		den := 2 << (data[1] % 2) // 1/2 or 1/4 of the 8-residue granule
		polKind := int(data[2] % 3)
		quota := 100 + uint64(data[3])*16
		warmup := uint64(0)
		if data[4]%2 == 1 {
			warmup = quota / 3
		}

		p := sampleFuzzParams(cores)
		p.SampleDen = den
		spec, err := p.SampleSpec()
		if err != nil {
			t.Fatal(err)
		}

		body := data[5:]
		per := len(body) / (3 * cores)
		if per == 0 {
			t.Skip()
		}
		script := func(core int) *scriptGen {
			refs := make([]trace.Ref, per)
			for i := range refs {
				b := body[(core*per+i)*3:]
				refs[i] = trace.Ref{
					Addr:  uint64(b[0]%64) * 32,
					Gap:   int32(b[1] % 8),
					Write: b[2]&1 == 1,
				}
			}
			return &scriptGen{name: "fuzz", refs: refs}
		}
		for c := 0; c < cores; c++ {
			kept := false
			for _, r := range script(c).refs {
				kept = kept || spec.Keep(r.Addr)
			}
			if !kept {
				t.Skip() // this core's filtered view would spin forever
			}
		}
		timing := make([]CoreTiming, cores)
		for i := range timing {
			timing[i] = CoreTiming{BaseCPI: 1 + float64((int(data[0])+i)%3)/2, Overlap: 0.5}
		}
		l2Sets := p.L2.SizeBytes / p.L2.LineBytes / p.L2.Ways

		build := func(sampleDen int) *System {
			pv := p
			pv.SampleDen = sampleDen
			gens := make([]trace.Generator, cores)
			for i := range gens {
				if sampleDen > 1 {
					gens[i] = spec.View(script(i))
				} else {
					gens[i] = spec.FilterView(script(i))
				}
			}
			sys, err := New(pv, gens, timing, samplePolicy(polKind, cores, l2Sets, p.L2.Ways))
			if err != nil {
				t.Fatal(err)
			}
			return sys
		}

		sampled := build(den)
		oracle := build(0)
		wantRes := oracle.refRun(warmup, quota)
		gotRes := sampled.Run(warmup, quota)
		if !reflect.DeepEqual(gotRes, wantRes) {
			t.Errorf("results diverge:\nsampled: %+v\nfull-filtered: %+v", gotRes, wantRes)
		}
		for i := 0; i < cores; i++ {
			if sampled.clock[i] != oracle.clock[i] {
				t.Errorf("core %d clock: sampled %v, full-filtered %v", i, sampled.clock[i], oracle.clock[i])
			}
			if sampled.batches[i].Pos != oracle.batches[i].Pos {
				t.Errorf("core %d batch cursor: sampled %d, full-filtered %d",
					i, sampled.batches[i].Pos, oracle.batches[i].Pos)
			}
			compareSampledCaches(t, "L1", i, spec, sampled.l1s[i], oracle.l1s[i], true)
			compareSampledCaches(t, "L2", i, spec, sampled.L2(i), oracle.L2(i), false)
		}

		// The filter's other half: the oracle ran the full machine, so every
		// set outside the sample must be untouched.
		for i := 0; i < cores; i++ {
			checkUnsampledQuiet(t, "L1", i, spec, oracle.l1s[i], true)
			checkUnsampledQuiet(t, "L2", i, spec, oracle.L2(i), false)
		}

		// The shared-LLC machine samples with the same spec (its aggregate
		// set count keeps the residue granule), so it gets its own two-arm
		// wall. The aggregate must stay a power of two, hence the core-count
		// guard; OrigSet is pure residue arithmetic, so it maps the larger
		// compact shared L2 back to full shared sets unchanged.
		if cores&(cores-1) == 0 {
			buildShared := func(sampleDen int) *System {
				sp := p
				sp.SampleDen = sampleDen
				gens := make([]trace.Generator, cores)
				for i := range gens {
					if sampleDen > 1 {
						gens[i] = spec.View(script(i))
					} else {
						gens[i] = spec.FilterView(script(i))
					}
				}
				sys, err := NewShared(sp, gens, timing)
				if err != nil {
					t.Fatal(err)
				}
				return sys
			}
			sharedArm := buildShared(den)
			sharedOracle := buildShared(0)
			got, want := sharedArm.Run(warmup, quota), sharedOracle.refRun(warmup, quota)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("shared results diverge:\nsampled: %+v\nfull-filtered: %+v", got, want)
			}
			for i := 0; i < cores; i++ {
				compareSampledCaches(t, "sharedL1", i, spec, sharedArm.l1s[i], sharedOracle.l1s[i], true)
				checkUnsampledQuiet(t, "sharedL1", i, spec, sharedOracle.l1s[i], true)
			}
			compareSampledCaches(t, "sharedL2", 0, spec, sharedArm.shared, sharedOracle.shared, false)
			for si := 0; si < sharedOracle.shared.NumSets(); si++ {
				if spec.KeepBlock(uint64(si)) {
					continue
				}
				if st := sharedOracle.shared.SetStatsFor(si); st != (cachesim.SetStats{}) {
					t.Errorf("shared L2 unsampled set %d saw traffic: %+v", si, st)
				}
			}
		}
	})
}

// origSetOf maps a compact set index to the corresponding full-geometry set:
// the sampled residue itself for the L1 (whose set count is the granule),
// the un-compacted L2 index otherwise.
func origSetOf(spec *trace.SampleSpec, cs int, l1 bool) int {
	if l1 {
		return spec.OrigL1Set(cs)
	}
	return spec.OrigSet(cs)
}

// compareSampledCaches demands that the compact machine's cache state is the
// full machine's state at the sampled sets under the address renaming:
// identical per-set counters and recency stacks, and way-for-way identical
// lines with tags compared through UnrewriteBlock (a valid compact line's
// tag is the rewritten block; stale tags on invalidated lines are ignored).
func compareSampledCaches(t *testing.T, level string, core int, spec *trace.SampleSpec, sampled, full *cachesim.Cache, l1 bool) {
	t.Helper()
	sets, ways := sampled.NumSets(), sampled.Ways()
	for cs := 0; cs < sets; cs++ {
		os := origSetOf(spec, cs, l1)
		if sa, sb := sampled.SetStatsFor(cs), full.SetStatsFor(os); sa != sb {
			t.Errorf("%s[%d] set %d/%d stats: sampled %+v, full-filtered %+v", level, core, cs, os, sa, sb)
		}
		if ra, rb := sampled.RecencyStack(cs), full.RecencyStack(os); !reflect.DeepEqual(ra, rb) {
			t.Errorf("%s[%d] set %d/%d recency: sampled %v, full-filtered %v", level, core, cs, os, ra, rb)
		}
		for w := 0; w < ways; w++ {
			la, lb := *sampled.Line(cs, w), *full.Line(os, w)
			ta, tb := la, lb
			ta.Tag, tb.Tag = 0, 0
			if ta != tb {
				t.Errorf("%s[%d] set %d/%d way %d flags: sampled %+v, full-filtered %+v", level, core, cs, os, w, la, lb)
				continue
			}
			if la.Valid() && spec.UnrewriteBlock(la.Tag) != lb.Tag {
				t.Errorf("%s[%d] set %d/%d way %d tag: sampled %#x (orig %#x), full-filtered %#x",
					level, core, cs, os, w, la.Tag, spec.UnrewriteBlock(la.Tag), lb.Tag)
			}
		}
	}
}

// checkUnsampledQuiet asserts a full-geometry cache saw no traffic outside
// the sampled sets: zero per-set counters and no valid lines.
func checkUnsampledQuiet(t *testing.T, level string, core int, spec *trace.SampleSpec, full *cachesim.Cache, l1 bool) {
	t.Helper()
	inSample := make(map[int]bool)
	for cs := 0; cs < spec.CompactSets(); cs++ {
		inSample[spec.OrigSet(cs)] = true
	}
	if l1 {
		inSample = make(map[int]bool)
		for _, r := range spec.Residues {
			inSample[r] = true
		}
	}
	for si := 0; si < full.NumSets(); si++ {
		if inSample[si] {
			continue
		}
		if st := full.SetStatsFor(si); st != (cachesim.SetStats{}) {
			t.Errorf("%s[%d] unsampled set %d saw traffic: %+v", level, core, si, st)
		}
		for w := 0; w < full.Ways(); w++ {
			if full.Line(si, w).Valid() {
				t.Errorf("%s[%d] unsampled set %d way %d holds a line: %+v", level, core, si, w, *full.Line(si, w))
			}
		}
	}
}

// TestSampleTrueRestriction is the strong form of the closure argument for
// the single-core case: because the sample granule is the L1 set count, a
// block's residue decides both its L1 set and its L2 residue, so unsampled
// references never touch a sampled block's L1 set either — the sampled
// machine's state must equal the TRUE, unfiltered full run's state
// restricted to the sampled sets, exactly, not merely match a filtered
// replay. With set-local replacement (baseline LRU) there is no cross-set
// state at all; multi-core interleave is therefore the only approximation
// the fast path ever makes (DESIGN.md §16). The script uses gap 0 so each
// reference is one instruction, and the quota is chosen to land on a kept
// reference so both arms freeze at the same stream position.
func TestSampleTrueRestriction(t *testing.T) {
	p := sampleFuzzParams(1)
	p.SampleDen = 4
	spec, err := p.SampleSpec()
	if err != nil {
		t.Fatal(err)
	}

	// A deterministic pseudo-random walk over 96 blocks, gap 0 throughout.
	const n = 997
	refs := make([]trace.Ref, n)
	x := uint64(12345)
	for i := range refs {
		x = x*6364136223846793005 + 1442695040888963407
		refs[i] = trace.Ref{Addr: (x >> 33) % 96 * 32, Write: (x>>21)&7 == 0}
	}

	// Pick the measurement quota so the reference AT the cut is kept: with
	// gap 0 the full run stops after exactly `quota` references, and the
	// sampled view's merged gaps put its own stop at the same position.
	quota := uint64(0)
	for i := 600; i < n; i++ {
		if spec.Keep(refs[i].Addr) {
			quota = uint64(i + 1)
			break
		}
	}
	if quota == 0 {
		t.Fatal("no kept reference in the probe window")
	}

	build := func(sampleDen int) *System {
		pv := p
		pv.SampleDen = sampleDen
		g := trace.Generator(&scriptGen{name: "true-restriction", refs: refs})
		if sampleDen > 1 {
			g = spec.View(g)
		}
		sys, err := New(pv, []trace.Generator{g}, evenTiming(1), policies.NewBaseline())
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}

	full := build(0)
	fullRes := full.Run(0, quota)
	sampled := build(4)
	sampledRes := sampled.Run(0, quota)

	if got, want := sampledRes.Cores[0].Instructions, fullRes.Cores[0].Instructions; got != want {
		t.Errorf("instructions: sampled %d, full %d", got, want)
	}
	compareSampledCaches(t, "L1", 0, spec, sampled.l1s[0], full.l1s[0], true)
	compareSampledCaches(t, "L2", 0, spec, sampled.L2(0), full.L2(0), false)
}

// TestSharedSampleTrueRestriction is TestSampleTrueRestriction for the
// shared-LLC machine: single core, TRUE unfiltered full run versus the
// compact machine on the filtered stream — the per-set LRU shared cache is
// set-local, so the restriction must again be exact.
func TestSharedSampleTrueRestriction(t *testing.T) {
	p := sampleFuzzParams(1)
	p.SampleDen = 4
	spec, err := p.SampleSpec()
	if err != nil {
		t.Fatal(err)
	}
	const n = 997
	refs := make([]trace.Ref, n)
	x := uint64(54321)
	for i := range refs {
		x = x*6364136223846793005 + 1442695040888963407
		refs[i] = trace.Ref{Addr: (x >> 33) % 96 * 32, Write: (x>>21)&7 == 0}
	}
	quota := uint64(0)
	for i := 600; i < n; i++ {
		if spec.Keep(refs[i].Addr) {
			quota = uint64(i + 1)
			break
		}
	}
	if quota == 0 {
		t.Fatal("no kept reference in the probe window")
	}

	build := func(sampleDen int) *System {
		sp := p
		sp.SampleDen = sampleDen
		g := trace.Generator(&scriptGen{name: "shared-true-restriction", refs: refs})
		if sampleDen > 1 {
			g = spec.View(g)
		}
		sys, err := NewShared(sp, []trace.Generator{g}, evenTiming(1))
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}

	full := build(0)
	fullRes := full.Run(0, quota)
	sampled := build(4)
	sampledRes := sampled.Run(0, quota)

	if got, want := sampledRes.Cores[0].Instructions, fullRes.Cores[0].Instructions; got != want {
		t.Errorf("instructions: sampled %d, full %d", got, want)
	}
	compareSampledCaches(t, "sharedL1", 0, spec, sampled.l1s[0], full.l1s[0], true)
	compareSampledCaches(t, "sharedL2", 0, spec, sampled.shared, full.shared, false)
}
