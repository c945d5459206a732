package cmp

import (
	"testing"

	"ascc/internal/cachesim"
	"ascc/internal/coop"
	"ascc/internal/policies"
	"ascc/internal/trace"
)

// Scenario tests for running ahead of the frontier (runPhase, settle,
// exactClock): each drives a two-core machine with a 4-way L1 (the kernel
// geometry that runs ahead) into one kind of peer action on a core that
// has logged run-ahead hits, demands the run bit-identical to the frozen
// per-reference oracle (refRun), and checks that the path under test was
// taken, so a scenario that drifts away from it fails instead of passing
// vacuously.

// runAheadParams is tinyParams with a 4-way L1 (2 sets) and a contended
// bus and memory port, so queue delays depend on the exact request clocks.
func runAheadParams() Params {
	p := tinyParams(2)
	p.L1 = cachesim.Config{SizeBytes: 256, Ways: 4, LineBytes: 32}
	p.BusOccupancy = 4
	p.MemOccupancy = 16
	return p
}

// blockRefs lists one reference per block, every one with the same gap and
// store flag.
func blockRefs(gap int32, write bool, blocks ...uint64) []trace.Ref {
	refs := make([]trace.Ref, len(blocks))
	for i, b := range blocks {
		refs[i] = trace.Ref{Addr: b * 32, Gap: gap, Write: write}
	}
	return refs
}

// runAheadPair runs one machine through System.Run and its twin through
// refRun, demands them identical and returns the engine's system.
func runAheadPair(t *testing.T, p Params, mkGens func() []trace.Generator, mkPol func() coop.Policy, quota uint64) *System {
	t.Helper()
	sys, oracle := buildOraclePair(t, p, mkGens, evenTiming(2), mkPol)
	got := sys.Run(0, quota)
	want := oracle.refRun(0, quota)
	compareSystems(t, "run-ahead", sys, got, oracle, want)
	if sys.runAhead.hits == 0 {
		t.Fatal("no core ran ahead of the frontier")
	}
	return sys
}

// spillStorm is the CC machine of the spill scenarios: core 0 streams
// through L2 set 0, so every miss spills a last-copy victim into core 1's
// set 0, whose own victim is back-invalidated from core 1's L1; core 1
// first touches four blocks of L2 set 0 (stores when dirty), then loops
// over the given L1-resident blocks with nothing but L1 hits.
func spillStorm(dirty bool, loop ...uint64) func() []trace.Generator {
	return func() []trace.Generator {
		stream := make([]uint64, 48)
		for i := range stream {
			stream[i] = uint64(16 + 4*i)
		}
		recv := blockRefs(1, dirty, 0, 4, 8, 12)
		for i := 0; i < 16; i++ {
			recv = append(recv, blockRefs(3, false, loop...)...)
		}
		return []trace.Generator{
			&scriptGen{name: "spiller", refs: blockRefs(1, false, stream...)},
			&scriptGen{name: "receiver", refs: recv},
		}
	}
}

func ccPolicy() coop.Policy { return policies.NewCC(2, 5) }

// TestRunAheadSpillBackInvalidation: core 1 keeps hitting the four blocks
// of its L1 set 0 that are also the lines core 0's spills displace from its
// L2 set 0, so each spill's back-invalidation lands on a set core 1 has
// run-ahead hits in, and those after the spill must be undone.
func TestRunAheadSpillBackInvalidation(t *testing.T) {
	sys := runAheadPair(t, runAheadParams(), spillStorm(false, 0, 4, 8, 12), ccPolicy, 6000)
	if sys.runAhead.rollbacks == 0 {
		t.Fatal("no spill back-invalidation rolled back a run-ahead hit")
	}
}

// TestRunAheadReceiverWritebackClock: core 1 dirties four lines of L2 set 0
// and then runs ahead on hits in its other L1 set, so the spills that evict
// those dirty lines need no rollback, but the writeback each one charges to
// core 1 must be queued at the clock exact stepping would have left core 1
// at — a logged hit's start — not at its run-ahead clock.
func TestRunAheadReceiverWritebackClock(t *testing.T) {
	sys := runAheadPair(t, runAheadParams(), spillStorm(true, 1, 3, 5, 7), ccPolicy, 6000)
	if sys.runAhead.logClocks == 0 {
		t.Fatal("no receiver writeback read its clock from a run-ahead log")
	}
	if wb := sys.frozen[1].Writebacks; wb == 0 {
		t.Fatal("the receiver wrote nothing back")
	}
}

// TestRunAheadDowngrade: core 1 owns block 0 Modified and stores to it
// again and again — L1 hits on the Modified marker, which it runs ahead
// on — while core 0 keeps re-reading the block. Each read downgrades core
// 1's copy to Shared and clears the marker, so core 1's run-ahead stores
// after the read must be undone and redone as write-through upgrades.
func TestRunAheadDowngrade(t *testing.T) {
	mkGens := func() []trace.Generator {
		reader := blockRefs(9, false, 0)
		for i := 0; i < 6; i++ {
			reader = append(reader, blockRefs(9, false, 2)...)
		}
		return []trace.Generator{
			&scriptGen{name: "reader", refs: reader},
			&scriptGen{name: "writer", refs: blockRefs(1, true, 0)},
		}
	}
	baseline := func() coop.Policy { return policies.NewBaseline() }
	sys := runAheadPair(t, runAheadParams(), mkGens, baseline, 6000)
	if sys.runAhead.rollbacks == 0 {
		t.Fatal("no downgrade rolled back a run-ahead store")
	}
}

// TestRunAheadOffUnderSlack: a machine with SyncSlack keeps the plain
// stepping — the sampled interleave is defined by where its turns end — so
// it never consumes a hit past the frontier, while the same machine
// without slack does.
func TestRunAheadOffUnderSlack(t *testing.T) {
	run := func(slack float64) *System {
		p := runAheadParams()
		p.SyncSlack = slack
		sys, err := New(p, spillStorm(false, 0, 4, 8, 12)(), evenTiming(2), ccPolicy())
		if err != nil {
			t.Fatal(err)
		}
		sys.Run(0, 6000)
		return sys
	}
	if sys := run(0); sys.runAhead.hits == 0 {
		t.Fatal("the machine without slack never ran ahead")
	}
	if ra := run(50).runAhead; ra.hits != 0 || ra.rollbacks != 0 {
		t.Fatalf("machine with slack ran ahead: %+v", ra)
	}
}
