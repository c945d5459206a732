package cmp

import (
	"testing"

	"ascc/internal/cachesim"
	"ascc/internal/policies"
	"ascc/internal/trace"
)

// TestSwapKeepsBothLinesOnChip drives the §3.2 swap directly: a thrashing
// set under ASCC spills lines, then re-accesses them; swaps must bring them
// home while pushing the local victim into the freed remote slot, so that
// off-chip misses for the cycling working set vanish in steady state.
func TestSwapKeepsBothLinesOnChip(t *testing.T) {
	p := tinyParams(2)
	// Core 0 cycles 5 blocks of set 0 (4 ways): needs 1 extra way. Core 1
	// cycles 3 blocks of its own set 0: past its L1 (pinL1), so the L2
	// sees hits, keeping that set's SSL low (receiver) with one dead way.
	giver := make([]trace.Ref, 3)
	for i := range giver {
		giver[i] = trace.Ref{Addr: 1<<30 + uint64(i*4)*32, Gap: 2}
	}
	gens := []trace.Generator{
		&scriptGen{name: "cycler", refs: pinL1(loopRefs(0, 4, 5, 2), 0)},
		&scriptGen{name: "giver", refs: pinL1(giver, 1)},
	}
	sys, _ := New(p, gens, evenTiming(2), newASCC(2, 4, 4, 1))
	res := sys.Run(20000, 30000)
	c0 := res.Cores[0]
	if c0.Swaps == 0 {
		t.Fatalf("no swaps on a cycling spilled working set: %+v", c0)
	}
	// After warmup the 6-block cycle must be served on-chip: essentially no
	// memory fills for core 0.
	if frac := float64(c0.L2MemFills) / float64(c0.L2Accesses); frac > 0.02 {
		t.Fatalf("%.1f%% of accesses still go to memory; swap/spill not retaining the set", 100*frac)
	}
	if c0.L2RemoteHits == 0 {
		t.Fatal("no remote hits: lines are not being found in the peer cache")
	}
}

// TestECCRegionEnforcement verifies the engine honours ECC's way
// partitioning: guests only ever occupy the shared region.
func TestECCRegionEnforcement(t *testing.T) {
	p := tinyParams(2)
	ecc := policies.NewECC(2, 4, 4, 1)
	gens := []trace.Generator{
		&scriptGen{name: "spiller", refs: loopRefs(0, 4, 8, 1)},
		&scriptGen{name: "victim", refs: loopRefs(2, 4, 2, 1)},
	}
	sys, _ := New(p, gens, evenTiming(2), ecc)
	sys.Run(0, 20000)
	// Every spilled line residing in cache 1 must sit in its shared region,
	// the ways ECC lets guests replace.
	bad := 0
	sys.l2s[1].ForEachLine(func(si, w int, l *cachesim.Line) {
		if l.Spilled && !ecc.SpillVictimAllow(1, si)(w) {
			bad++
		}
	})
	if bad > 0 {
		t.Fatalf("%d guests found in ECC private-region ways", bad)
	}
}

// TestDeadLineAdmissionProtectsHotSets: a receiver set whose lines are all
// live (recently reused) must reject guests, so a busy peer is not polluted
// by a thrashing neighbour under ASCC.
func TestDeadLineAdmissionProtectsHotSets(t *testing.T) {
	p := tinyParams(2)
	// Core 0 thrashes set 0. Core 1 has a hot working set in ITS set 0
	// (4 blocks cycling fast => all reused).
	hot := make([]trace.Ref, 0, 8)
	for i := 0; i < 2; i++ {
		for b := 0; b < 4; b++ {
			hot = append(hot, trace.Ref{Addr: 1<<30 + uint64(b*4*32), Gap: 1})
		}
	}
	gens := []trace.Generator{
		&scriptGen{name: "thrash", refs: loopRefs(0, 4, 12, 4)},
		&scriptGen{name: "hot", refs: hot},
	}
	base, _ := New(tinyParams(2), []trace.Generator{
		&scriptGen{name: "thrash", refs: loopRefs(0, 4, 12, 4)},
		&scriptGen{name: "hot", refs: hot},
	}, evenTiming(2), policies.NewBaseline())
	baseRes := base.Run(5000, 20000)

	sys, _ := New(p, gens, evenTiming(2), newASCC(2, 4, 4, 1))
	res := sys.Run(5000, 20000)

	// The hot core must not lose meaningful performance to guest pollution.
	if res.Cores[1].CPI() > baseRes.Cores[1].CPI()*1.03 {
		t.Fatalf("hot core CPI %.3f vs baseline %.3f: polluted by guests",
			res.Cores[1].CPI(), baseRes.Cores[1].CPI())
	}
}

// TestMTWriteInvalidatesAllCopies checks the MESI write-upgrade path across
// more than two caches.
func TestMTWriteInvalidatesAllCopies(t *testing.T) {
	p := tinyParams(3)
	// All three cores read block 0; then core 0 writes it.
	readers := []trace.Ref{{Addr: 0, Gap: 3}, {Addr: 32, Gap: 3}}
	writer := []trace.Ref{{Addr: 0, Gap: 3}, {Addr: 0, Write: true, Gap: 3}, {Addr: 32, Gap: 3}}
	gens := []trace.Generator{
		&scriptGen{name: "w", refs: writer},
		&scriptGen{name: "r1", refs: readers},
		&scriptGen{name: "r2", refs: readers},
	}
	sys, _ := New(p, gens, evenTiming(3), policies.NewBaseline())
	sys.Run(0, 5000)
	// Invariant: if any cache holds block 0 in M, no other cache holds it.
	holders := 0
	dirtyHolders := 0
	for c := 0; c < 3; c++ {
		if w, ok := sys.l2s[c].Lookup(0); ok {
			holders++
			if sys.l2s[c].Line(sys.l2s[c].SetIndex(0), w).State == cachesim.Modified {
				dirtyHolders++
			}
		}
	}
	if dirtyHolders > 0 && holders > 1 {
		t.Fatalf("modified block co-resident in %d caches", holders)
	}
}

// TestPolicyStatePersistsAcrossWarmup: the warmup phase must train policy
// state (SSLs, PSELs) — only the statistics are reset.
func TestPolicyStatePersistsAcrossWarmup(t *testing.T) {
	p := tinyParams(2)
	pol := newASCC(2, 4, 4, 1)
	gens := []trace.Generator{
		&scriptGen{name: "a", refs: pinL1(loopRefs(0, 4, 8, 2), 0)},
		&scriptGen{name: "b", refs: loopRefs(2, 4, 2, 2)},
	}
	sys, _ := New(p, gens, evenTiming(2), pol)
	res := sys.Run(15000, 15000)
	// With a trained policy, spilled lines are already in place when
	// measurement starts: remote hits should flow from the first window.
	if res.Cores[0].L2RemoteHits+res.Cores[0].Swaps == 0 {
		t.Fatal("no remote traffic after warmup; policy state may have been reset")
	}
}
