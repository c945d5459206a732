package cmp

import (
	"reflect"
	"testing"

	"ascc/internal/cachesim"
	"ascc/internal/coop"
	"ascc/internal/policies"
	"ascc/internal/trace"
)

// fuzzGens decodes per-core cyclic scripts from the fuzz body: 3 bytes per
// reference over a 64-block space (heavy conflict pressure and cross-core
// sharing by construction), with store bits to force upgrade events.
func fuzzGens(body []byte, cores int) []trace.Generator {
	per := len(body) / (3 * cores)
	gens := make([]trace.Generator, cores)
	for core := range gens {
		refs := make([]trace.Ref, per)
		for i := range refs {
			b := body[(core*per+i)*3:]
			refs[i] = trace.Ref{
				Addr:  uint64(b[0]%64) * 32,
				Gap:   int32(b[1] % 8),
				Write: b[2]&1 == 1,
			}
		}
		gens[core] = &scriptGen{name: "fuzz", refs: refs}
	}
	return gens
}

// fuzzPolicies are the policies the differential fuzzers draw from, by
// index: no cooperation, AVGCC (last-copy migration and swaps, dead-line
// guest victims), DSR and DSR+DIP (set-dueling spills), ECC (region-
// partitioned victims) and CC (random spills). Together they reach every
// spill, guest-victim and migration path of the engine.
var fuzzPolicies = []func(cores, sets, ways int) coop.Policy{
	func(int, int, int) coop.Policy { return policies.NewBaseline() },
	func(cores, sets, ways int) coop.Policy {
		cfg := policies.AVGCCDefaultConfig(cores, sets, ways, 1)
		cfg.ResizePeriod = 50
		return policies.NewASCCVariant("AVGCC", cfg)
	},
	func(cores, sets, ways int) coop.Policy { return policies.NewDSR(cores, sets, ways, 1) },
	func(cores, sets, ways int) coop.Policy { return policies.NewDSRDIP(cores, sets, ways, 1) },
	func(cores, sets, ways int) coop.Policy { return policies.NewECC(cores, sets, ways, 1) },
	func(cores, _, _ int) coop.Policy { return policies.NewCC(cores, 1) },
}

// fuzzSystem builds one private-LLC system over the fuzz body's scripts
// under fuzzPolicies[pol].
func fuzzSystem(t *testing.T, p Params, body []byte, cores, pol int, timing []CoreTiming) *System {
	t.Helper()
	sets := p.L2.SizeBytes / p.L2.LineBytes / p.L2.Ways
	sys, err := New(p, fuzzGens(body, cores), timing, fuzzPolicies[pol](cores, sets, p.L2.Ways))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// fuzzSharedSystem builds the shared-LLC machine over the same scripts.
func fuzzSharedSystem(t *testing.T, p Params, body []byte, cores int, timing []CoreTiming) *System {
	t.Helper()
	sys, err := NewShared(p, fuzzGens(body, cores), timing)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// compareSystems demands that sys ended bit-identical to the oracle: frozen
// CoreStats, final core clocks, batch cursors and the complete L1 and L2
// state (tags, line flags, recency stacks, set counters).
func compareSystems(t *testing.T, name string, sys *System, got Results, oracle *System, want Results) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s results diverge:\ngot:  %+v\nwant: %+v", name, got, want)
	}
	for i := range oracle.clock {
		if sys.clock[i] != oracle.clock[i] {
			t.Errorf("%s core %d clock: got %v, want %v", name, i, sys.clock[i], oracle.clock[i])
		}
		if sys.batches[i].Pos != oracle.batches[i].Pos {
			t.Errorf("%s core %d batch cursor: got %d, want %d",
				name, i, sys.batches[i].Pos, oracle.batches[i].Pos)
		}
		compareCaches(t, "L1/"+name, i, sys.l1s[i], oracle.l1s[i])
		compareCaches(t, "L2/"+name, i, sys.L2(i), oracle.L2(i))
	}
}

// FuzzBurstEquivalence drives a random machine and reference stream through
// the run-to-event engine (runPhase) and demands it bit-identical to the
// frozen per-reference stepping (refRun, refstep_test.go): frozen CoreStats,
// final core clocks, the complete L1 and L2 state and the batch cursors.
// The decoded input varies every event class the kernel can hit: quota and
// frontier cut points (diverse BaseCPI), write-hit upgrades (random store
// bits over a tiny block space), L1-thrashing L2-resident read runs, batch
// wrap-around (streams longer than the 64-ref batch), one- and two-set L1s,
// the prefetcher, bus and memory contention (so queue delays depend on the
// exact request clocks), 1-4 cores and every policy of fuzzPolicies. With
// more than one core the engine runs ahead of the frontier on L1 hits, so
// every peer invalidation, spill back-invalidation, migration, M->S
// downgrade and receiver writeback is also a rollback check. A second arm
// runs the shared-LLC machine (NewShared) over the same scripts whenever
// its aggregate LLC is a valid geometry (1, 2 or 4 cores), so the shared
// descent is held to the same oracle: every store hit writes through and
// invalidates the peer L1s on both paths.
func FuzzBurstEquivalence(f *testing.F) {
	f.Add([]byte("burst-kernel-seed"))
	f.Add([]byte{3, 1, 1, 9, 1, 0x10, 2, 1, 0x31, 5, 0, 0x52, 7, 1})
	f.Add([]byte{2, 0, 0, 200, 0, 0x21, 0, 0, 0x22, 1, 1, 0x23, 2, 0, 0x24, 3, 1})
	f.Add([]byte{0, 1, 1, 4, 1, 0xFF, 0, 1})
	// L2-hit-heavy: one core, two-set L1, a read-only cycle over
	// 21 distinct blocks — far beyond the tiny L1 but L2-resident, so
	// nearly every access is a clean local L2 hit.
	f.Add([]byte{
		0, 1, 0, 120, 0,
		0, 1, 0, 3, 1, 0, 6, 1, 0, 9, 1, 0, 12, 1, 0, 15, 1, 0, 18, 1, 0,
		21, 1, 0, 24, 1, 0, 27, 1, 0, 30, 1, 0, 33, 1, 0, 36, 1, 0, 39, 1, 0,
		42, 1, 0, 45, 1, 0, 48, 1, 0, 51, 1, 0, 54, 1, 0, 57, 1, 0, 60, 1, 0,
	})
	// Upgrade-heavy: two cores, every reference a store over overlapping
	// blocks — Shared-line write hits and first-store L1 upgrades dominate.
	f.Add([]byte{
		1, 1, 1, 80, 16,
		0, 1, 1, 8, 1, 1, 16, 1, 1, 24, 1, 1, 0, 2, 1, 8, 2, 1,
		0, 1, 1, 8, 1, 1, 16, 1, 1, 24, 1, 1, 0, 2, 1, 16, 2, 1,
	})
	// Three cores over a mixed read/write stream.
	f.Add([]byte{
		2, 1, 1, 60, 12,
		5, 1, 0, 10, 1, 1, 15, 1, 0, 20, 1, 0, 25, 1, 1, 30, 1, 0,
		35, 1, 0, 40, 1, 1, 45, 1, 0, 50, 1, 0, 55, 1, 1, 60, 1, 0,
	})
	// Shared-LLC focus: two cores read and write the same three blocks, so
	// store hits on blocks the peer has just read run the shared machine's
	// write-through and peer-L1 invalidation on nearly every turn.
	f.Add([]byte{
		1, 1, 0, 40, 0,
		1, 0, 1, 2, 0, 1, 1, 1, 1, 3, 0, 0, 2, 0, 1, 1, 0, 1, 3, 1, 1, 1, 0, 0,
		1, 0, 0, 2, 0, 0, 1, 0, 0, 3, 0, 1, 2, 1, 0, 1, 0, 0, 3, 0, 0, 2, 0, 1,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			t.Skip()
		}
		// A body too short for one three-byte reference per core runs on
		// fewer cores rather than being skipped.
		body := data[5:]
		cores := 1 + int(data[0]%4)
		for cores > 1 && len(body)/(3*cores) == 0 {
			cores--
		}
		if len(body)/(3*cores) == 0 {
			t.Skip()
		}
		l1Sets := 1 + int(data[1]%2)
		pol := int(data[2]) % len(fuzzPolicies)
		quota := 100 + uint64(data[3])*16
		warmup := uint64(0)
		if data[4]%2 == 1 {
			warmup = quota / 3
		}
		p := tinyParams(cores)
		p.L1 = cachesim.Config{SizeBytes: 32 * cachesim.L1Ways * l1Sets, Ways: cachesim.L1Ways, LineBytes: 32}
		p.Prefetch = data[4]&2 != 0
		p.BusOccupancy = []float64{0, 1, 4, 9}[data[4]>>2&3]
		p.MemOccupancy = []float64{0, 5, 16, 50}[data[4]>>4&3]
		timing := make([]CoreTiming, cores)
		for i := range timing {
			timing[i] = CoreTiming{BaseCPI: 1 + float64((int(data[0])+i)%3)/2, Overlap: 0.5}
		}
		sys := fuzzSystem(t, p, body, cores, pol, timing)
		oracle := fuzzSystem(t, p, body, cores, pol, timing)
		got := sys.Run(warmup, quota)
		want := oracle.refRun(warmup, quota)
		compareSystems(t, "refstep", sys, got, oracle, want)
		agg := p.L2
		agg.SizeBytes *= cores
		if agg.Validate() == nil {
			shared := fuzzSharedSystem(t, p, body, cores, timing)
			sharedOracle := fuzzSharedSystem(t, p, body, cores, timing)
			got := shared.Run(warmup, quota)
			want := sharedOracle.refRun(warmup, quota)
			compareSystems(t, "shared", shared, got, sharedOracle, want)
		}
	})
}

// FuzzDirectoryEquivalence is the differential wall for the coherence
// directory: the engine with the directory (the default) and the engine in
// broadcast mode (Params.broadcast) run the same machine and reference
// streams, and both must be bit-identical — frozen CoreStats, final clocks,
// batch cursors, complete L1/L2 state — to the frozen per-reference
// broadcast oracle (refRun). The directory and broadcast runs must also
// answer the same number of coherence probes (the property that makes the
// scaling table's probe column an apples-to-apples A/B). Core counts reach 8
// so holder masks cover more than 4 peers; ASCC variants exercise last-copy
// swaps and spills through the directory's remove/add paths.
func FuzzDirectoryEquivalence(f *testing.F) {
	f.Add([]byte("directory-differential-seed"))
	// 8 cores, ASCC, every core hammering blocks 0/1 — holder masks with 7
	// peers from the first few turns.
	f.Add([]byte{6, 1, 1, 0x40, 0x0c,
		0, 0, 0, 1, 0, 1, 0, 1, 0, 1, 1, 1, 0, 2, 0, 1, 2, 1,
		0, 0, 1, 1, 3, 0, 0, 1, 1, 1, 0, 0, 0, 2, 1, 1, 1, 0,
		0, 4, 0, 1, 0, 1, 0, 1, 0, 1, 2, 1})
	// 6 cores, baseline + prefetch, striding writes over the block space.
	f.Add([]byte{4, 0, 0, 0x20, 0x06,
		0, 1, 1, 8, 1, 0, 16, 1, 1, 24, 1, 0, 32, 1, 1, 40, 1, 0,
		48, 1, 1, 56, 1, 0, 4, 1, 1, 12, 1, 0, 20, 1, 1, 28, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			t.Skip()
		}
		cores := 2 + int(data[0]%7) // 2..8: past the 4-core golden config
		l1Sets := 1 + int(data[1]%2)
		pol := int(data[2] % 2) // baseline or AVGCC
		quota := 100 + uint64(data[3])*16
		warmup := uint64(0)
		if data[4]%2 == 1 {
			warmup = quota / 3
		}
		p := tinyParams(cores)
		p.L1 = cachesim.Config{SizeBytes: 32 * cachesim.L1Ways * l1Sets, Ways: cachesim.L1Ways, LineBytes: 32}
		p.Prefetch = data[4]&2 != 0
		body := data[5:]
		if len(body)/(3*cores) == 0 {
			t.Skip()
		}
		timing := make([]CoreTiming, cores)
		for i := range timing {
			timing[i] = CoreTiming{BaseCPI: 1 + float64((int(data[0])+i)%3)/2, Overlap: 0.5}
		}
		pb := p
		pb.broadcast = true
		dir := fuzzSystem(t, p, body, cores, pol, timing)
		bcast := fuzzSystem(t, pb, body, cores, pol, timing)
		oracle := fuzzSystem(t, pb, body, cores, pol, timing)
		want := oracle.refRun(warmup, quota)
		compareSystems(t, "directory", dir, dir.Run(warmup, quota), oracle, want)
		compareSystems(t, "broadcast", bcast, bcast.Run(warmup, quota), oracle, want)
		if dp, bp := dir.CoherenceProbes(), bcast.CoherenceProbes(); dp != bp {
			t.Errorf("probe counts diverge: directory %d, broadcast %d", dp, bp)
		}
	})
}

// compareCaches demands identical observable cache state: per-set counters
// and recency stacks, and every line's tag and flags.
func compareCaches(t *testing.T, level string, core int, a, b *cachesim.Cache) {
	t.Helper()
	sets, ways := a.NumSets(), a.Ways()
	for si := 0; si < sets; si++ {
		if sa, sb := a.SetStatsFor(si), b.SetStatsFor(si); sa != sb {
			t.Errorf("%s[%d] set %d stats: burst %+v, per-ref %+v", level, core, si, sa, sb)
		}
		if ra, rb := a.RecencyStack(si), b.RecencyStack(si); !reflect.DeepEqual(ra, rb) {
			t.Errorf("%s[%d] set %d recency: burst %v, per-ref %v", level, core, si, ra, rb)
		}
		for w := 0; w < ways; w++ {
			if la, lb := *a.Line(si, w), *b.Line(si, w); la != lb {
				t.Errorf("%s[%d] set %d way %d: burst %+v, per-ref %+v", level, core, si, w, la, lb)
			}
		}
	}
}
