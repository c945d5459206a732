package workload

import (
	"testing"

	"ascc/internal/trace"
)

func TestProfilesComplete(t *testing.T) {
	ps := Profiles()
	if len(ps) != 13 {
		t.Fatalf("have %d profiles, want 13 (Table 3)", len(ps))
	}
	wantIDs := []int{401, 429, 433, 444, 445, 450, 456, 458, 462, 470, 471, 473, 482}
	for i, id := range wantIDs {
		if ps[i].ID != id {
			t.Fatalf("profile[%d].ID = %d, want %d", i, ps[i].ID, id)
		}
	}
	// Every benchmark in Table 3 has MPKI >= 1 (the paper's selection rule).
	for _, p := range ps {
		if p.TableMPKI < 1 {
			t.Errorf("%s: Table MPKI %v < 1", p.Name, p.TableMPKI)
		}
		if p.BaseCPI <= 0 || p.Overlap <= 0 || p.Overlap > 1 {
			t.Errorf("%s: implausible timing params base=%v overlap=%v", p.Name, p.BaseCPI, p.Overlap)
		}
		if p.RefsPerKInstr <= 0 || p.RefsPerKInstr > 1000 {
			t.Errorf("%s: implausible reference rate %v", p.Name, p.RefsPerKInstr)
		}
	}
}

func TestByID(t *testing.T) {
	p, err := ByID(433)
	if err != nil || p.Name != "milc" {
		t.Fatalf("ByID(433) = %+v, %v", p, err)
	}
	if _, err := ByID(999); err == nil {
		t.Fatal("ByID(999) did not fail")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustByID(999) did not panic")
		}
	}()
	MustByID(999)
}

func TestCategories(t *testing.T) {
	want := map[int]Category{
		433: Streaming, 462: Streaming, 470: Streaming, 482: Streaming,
		444: SmallWS, 445: SmallWS, 458: SmallWS,
		401: CapacityHungry, 429: CapacityHungry, 450: CapacityHungry,
		456: CapacityHungry, 471: CapacityHungry, 473: CapacityHungry,
	}
	for id, cat := range want {
		if p := MustByID(id); p.Category != cat {
			t.Errorf("%d.%s category %v, want %v", id, p.Name, p.Category, cat)
		}
	}
	if Streaming.String() != "streaming" || SmallWS.String() != "small-ws" || CapacityHungry.String() != "capacity-hungry" {
		t.Error("category names wrong")
	}
}

func TestMixName(t *testing.T) {
	if got := MixName([]int{445, 401, 444, 456}); got != "445+401+444+456" {
		t.Fatalf("MixName = %q", got)
	}
}

func TestMixes(t *testing.T) {
	four := FourAppMixes()
	if len(four) != 6 {
		t.Fatalf("four-app mixes: %d, want 6", len(four))
	}
	for _, m := range four {
		if len(m) != 4 {
			t.Fatalf("mix %v has %d apps, want 4", m, len(m))
		}
	}
	// The Table 1 mixes, verbatim.
	if MixName(four[0]) != "445+401+444+456" || MixName(four[5]) != "458+444+471+462" {
		t.Fatalf("four-app mixes do not match Table 1: %v", four)
	}
	two := TwoAppMixes()
	if len(two) != 14 {
		t.Fatalf("two-app mixes: %d, want 14 (paper §5)", len(two))
	}
	seen := map[string]bool{}
	for _, m := range two {
		if len(m) != 2 {
			t.Fatalf("mix %v has %d apps, want 2", m, len(m))
		}
		n := MixName(m)
		if seen[n] {
			t.Fatalf("duplicate two-app mix %s", n)
		}
		seen[n] = true
		for _, id := range m {
			MustByID(id) // must resolve
		}
	}
	// The seven mixes the paper names must be present.
	for _, name := range []string{"445+456", "456+471", "450+462", "473+482", "458+471", "462+471", "429+401"} {
		if !seen[name] {
			t.Errorf("paper-named mix %s missing", name)
		}
	}
}

func TestBuildMixDisjointAddressSpaces(t *testing.T) {
	gens, profs, err := BuildMix([]int{445, 401, 444, 456}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 4 || len(profs) != 4 {
		t.Fatalf("BuildMix sizes %d/%d", len(gens), len(profs))
	}
	for core, g := range gens {
		lo, hi := CoreAddressBase(core), CoreAddressBase(core+1)
		for i := 0; i < 5000; i++ {
			a := g.Next().Addr
			if a < lo || a >= hi {
				t.Fatalf("core %d address %#x outside [%#x,%#x)", core, a, lo, hi)
			}
		}
	}
	if _, _, err := BuildMix([]int{445, 999}, 1, 1); err == nil {
		t.Fatal("BuildMix with unknown ID did not fail")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	for _, p := range Profiles() {
		g1 := p.NewGenerator(7, 0, 1)
		g2 := p.NewGenerator(7, 0, 1)
		for i := 0; i < 1000; i++ {
			if g1.Next() != g2.Next() {
				t.Fatalf("%s: same-seed generators diverged at ref %d", p.Name, i)
			}
		}
	}
}

func TestGeneratorRatesMatchProfiles(t *testing.T) {
	for _, p := range Profiles() {
		g := p.NewGenerator(3, 0, 1)
		var instr, refs uint64
		for i := 0; i < 20000; i++ {
			r := g.Next()
			instr += uint64(r.Gap) + 1
			refs++
		}
		rate := float64(refs) / float64(instr) * 1000
		if rate < p.RefsPerKInstr*0.95 || rate > p.RefsPerKInstr*1.05 {
			t.Errorf("%s: measured rate %.1f, profile says %.1f", p.Name, rate, p.RefsPerKInstr)
		}
	}
}

func TestStreamingProfilesHaveHugeFootprints(t *testing.T) {
	// A streaming model must touch far more distinct lines than the LLC
	// holds; a small-WS model must stay small.
	distinctLines := func(id int, n int) int {
		p := MustByID(id)
		g := p.NewGenerator(5, 0, 1)
		seen := make(map[uint64]bool)
		for i := 0; i < n; i++ {
			seen[g.Next().Addr>>5] = true
		}
		return len(seen)
	}
	const refs = 200000
	llcLines := (1 * MB) / 32
	if got := distinctLines(433, refs); got < llcLines/4 {
		t.Errorf("milc touched only %d lines in %d refs", got, refs)
	}
	if got := distinctLines(444, refs); got > llcLines {
		t.Errorf("namd touched %d lines, should fit near the LLC (%d)", got, llcLines)
	}
}

func TestMTProfiles(t *testing.T) {
	ps := MTProfiles()
	if len(ps) != 6 {
		t.Fatalf("MT profiles: %d, want 6", len(ps))
	}
	for _, p := range ps {
		gens := p.NewGenerators(4, 9, 1)
		if len(gens) != 4 {
			t.Fatalf("%s: %d generators, want 4", p.Name, len(gens))
		}
		// Threads must be deterministic and distinct.
		again := p.NewGenerators(4, 9, 1)
		for i := 0; i < 200; i++ {
			if gens[0].Next() != again[0].Next() {
				t.Fatalf("%s: thread 0 not deterministic", p.Name)
			}
		}
	}
	if _, err := MTProfileByName("ocean"); err != nil {
		t.Fatal(err)
	}
	if _, err := MTProfileByName("nope"); err == nil {
		t.Fatal("unknown MT name did not fail")
	}
}

func TestMTSharingExists(t *testing.T) {
	// Different threads of a shared workload must touch overlapping lines
	// (that is the point of the MT sensitivity study).
	p, _ := MTProfileByName("lu")
	gens := p.NewGenerators(4, 11, 1)
	sets := make([]map[uint64]bool, 4)
	for tIdx, g := range gens {
		sets[tIdx] = map[uint64]bool{}
		for i := 0; i < 30000; i++ {
			sets[tIdx][g.Next().Addr>>5] = true
		}
	}
	common := 0
	for line := range sets[0] {
		if sets[1][line] {
			common++
		}
	}
	if common < 100 {
		t.Fatalf("threads 0 and 1 share only %d lines", common)
	}
}

func TestScaleComponentsPreservesRatios(t *testing.T) {
	// At scale 8, milc's stream must still dwarf the scaled 128 kB LLC and
	// namd's loop must still fit inside it.
	distinctLines := func(id, scale, n int) int {
		g := MustByID(id).NewGenerator(5, 0, scale)
		seen := make(map[uint64]bool)
		for i := 0; i < n; i++ {
			seen[g.Next().Addr>>5] = true
		}
		return len(seen)
	}
	const refs = 100000
	scaledLLCLines := (1 * MB / 8) / 32
	if got := distinctLines(433, 8, refs); got < scaledLLCLines {
		t.Errorf("scaled milc touched %d lines, want > scaled LLC (%d)", got, scaledLLCLines)
	}
	if got := distinctLines(444, 8, refs); got > scaledLLCLines {
		t.Errorf("scaled namd touched %d lines, want < scaled LLC (%d)", got, scaledLLCLines)
	}
}

func TestScaleComponentsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("scale 0 did not panic")
		}
	}()
	ScaleComponents(nil, 0)
}

func TestScaleCyclesFaster(t *testing.T) {
	// The point of scaling: a capacity-hungry loop must complete full
	// passes within a modest instruction budget at scale 8.
	g := MustByID(456).NewGenerator(5, 0, 8) // hmmer: 1.25MB loop -> 160KB
	first := uint64(0)
	repeats := 0
	for i := 0; i < 400000; i++ {
		r := g.Next()
		if i == 0 {
			first = r.Addr
		} else if r.Addr == first {
			repeats++
		}
	}
	if repeats == 0 {
		t.Fatal("scaled hmmer loop never completed a pass in 400k refs")
	}
}

var sinkRef trace.Ref

func BenchmarkGeneratorNext(b *testing.B) {
	g := MustByID(471).NewGenerator(1, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkRef = g.Next()
	}
}

// TestNextMatchesNextBatch pins the Generator contract for every workload
// profile, single-threaded and multithreaded: n successive Next calls emit
// exactly the references one n-reference NextBatch does from the same seed.
// Recorded streams (cmd/tracegen) go through Next while
// simulations replay NextBatch, so the two must never drift apart.
func TestNextMatchesNextBatch(t *testing.T) {
	const n = 5000
	type pair struct{ a, b trace.Generator }
	var pairs []pair
	for _, p := range Profiles() {
		pairs = append(pairs, pair{p.NewGenerator(7, 1<<36, 8), p.NewGenerator(7, 1<<36, 8)})
	}
	for _, p := range MTProfiles() {
		as, bs := p.NewGenerators(4, 7, 8), p.NewGenerators(4, 7, 8)
		for i := range as {
			pairs = append(pairs, pair{as[i], bs[i]})
		}
	}
	batch := make([]trace.Ref, n)
	for _, p := range pairs {
		p.b.NextBatch(batch)
		for i, want := range batch {
			if got := p.a.Next(); got != want {
				t.Fatalf("%s: reference %d: Next %+v, NextBatch %+v", p.a.Name(), i, got, want)
			}
		}
	}
}

// TestSPECStreamsPackShort pins the arena footprint the store and the
// trace-cache budget are sized by: every SPEC profile's stream, at scales 8
// and 1, packs into short records only — 4 bytes per reference (DESIGN.md
// §10 tabulates the other stream families).
func TestSPECStreamsPackShort(t *testing.T) {
	const n = 1 << 16
	for _, scale := range []int{8, 1} {
		for _, p := range Profiles() {
			gs, _, err := BuildMix([]int{p.ID}, 1, scale)
			if err != nil {
				t.Fatal(err)
			}
			a := trace.NewArena(gs[0])
			a.Extend(n)
			snap, err := a.Snapshot(func([]uint32) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
			if snap.Words != snap.Refs {
				t.Errorf("%d at scale %d: %d references pack into %d words, want one short record each", p.ID, scale, snap.Refs, snap.Words)
			}
		}
	}
}
