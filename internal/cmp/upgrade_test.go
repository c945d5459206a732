package cmp

import (
	"testing"

	"ascc/internal/cachesim"
	"ascc/internal/policies"
	"ascc/internal/trace"
)

// newUpgradeSystem builds a small scripted machine for driving single
// references through the hierarchy by hand.
func newUpgradeSystem(t *testing.T, cores int) *System {
	t.Helper()
	gens := make([]trace.Generator, cores)
	for i := range gens {
		gens[i] = &scriptGen{name: "manual", refs: []trace.Ref{{}}}
	}
	sys, err := New(tinyParams(cores), gens, evenTiming(cores), policies.NewBaseline())
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestWriteUpgradeInvalidatesPeers covers the writeThroughHit path: a store
// that hits the L1 while the inclusive L2 copy is Shared must invalidate
// every peer copy (L1 and L2), upgrade the local copy to Modified/Dirty, and
// cost exactly one bus transfer.
func TestWriteUpgradeInvalidatesPeers(t *testing.T) {
	s := newUpgradeSystem(t, 2)
	const block = uint64(1)
	addr := block * 32

	// Core 0 fills the block from memory (Exclusive), core 1 read-shares it:
	// both L2s now hold it Shared, both L1s hold it.
	s.access(0, trace.Ref{Addr: addr})
	s.access(1, trace.Ref{Addr: addr})
	for c := 0; c < 2; c++ {
		w, ok := s.l2s[c].Lookup(block)
		if !ok {
			t.Fatalf("setup: core %d L2 lost the block", c)
		}
		if st := s.l2s[c].Line(s.l2s[c].SetIndex(block), w).State; st != cachesim.Shared {
			t.Fatalf("setup: core %d L2 state = %v, want Shared", c, st)
		}
	}
	if _, ok := s.l1s[1].Lookup(block); !ok {
		t.Fatal("setup: core 1 L1 does not hold the shared block")
	}

	bus0 := s.live[0].BusTransfers
	s.access(0, trace.Ref{Addr: addr, Write: true})

	if _, ok := s.l2s[1].Lookup(block); ok {
		t.Error("upgrade left the peer L2 copy valid")
	}
	if _, ok := s.l1s[1].Lookup(block); ok {
		t.Error("upgrade left the peer L1 copy valid (inclusion would break)")
	}
	w, ok := s.l2s[0].Lookup(block)
	if !ok {
		t.Fatal("upgrade dropped the writer's own L2 copy")
	}
	line := s.l2s[0].Line(s.l2s[0].SetIndex(block), w)
	if line.State != cachesim.Modified || !line.Dirty {
		t.Errorf("writer's L2 line = {State %v Dirty %v}, want Modified/dirty", line.State, line.Dirty)
	}
	if got := s.live[0].BusTransfers - bus0; got != 1 {
		t.Errorf("upgrade cost %d bus transfers, want exactly 1", got)
	}
	if got := s.holderMask(block, 0); got != 0 {
		t.Errorf("holder mask after upgrade = %b, want no peers", got)
	}

	// A repeat store to the Modified line is L1-local: no further bus
	// traffic, no state change.
	s.access(0, trace.Ref{Addr: addr, Write: true})
	if got := s.live[0].BusTransfers - bus0; got != 1 {
		t.Errorf("repeat store moved the bus counter to %d, want still 1", got)
	}
	if line.State != cachesim.Modified || !line.Dirty {
		t.Errorf("repeat store changed the L2 line to {State %v Dirty %v}", line.State, line.Dirty)
	}
}

// TestWriteUpgradeOnL2Hit covers the l2Demand upgrade: a store whose block
// missed the L1 but hits the local L2 in Shared state runs the same
// invalidate-others upgrade.
func TestWriteUpgradeOnL2Hit(t *testing.T) {
	s := newUpgradeSystem(t, 2)
	const block = uint64(1)
	addr := block * 32

	s.access(0, trace.Ref{Addr: addr})
	s.access(1, trace.Ref{Addr: addr})
	// Knock the writer's L1 copy out so the store takes the L2 path.
	s.l1s[0].Invalidate(block)

	bus0 := s.live[0].BusTransfers
	s.access(0, trace.Ref{Addr: addr, Write: true})

	if _, ok := s.l2s[1].Lookup(block); ok {
		t.Error("L2-hit upgrade left the peer L2 copy valid")
	}
	if _, ok := s.l1s[1].Lookup(block); ok {
		t.Error("L2-hit upgrade left the peer L1 copy valid")
	}
	w, ok := s.l2s[0].Lookup(block)
	if !ok {
		t.Fatal("L2-hit upgrade dropped the writer's copy")
	}
	line := s.l2s[0].Line(s.l2s[0].SetIndex(block), w)
	if line.State != cachesim.Modified || !line.Dirty {
		t.Errorf("writer's L2 line = {State %v Dirty %v}, want Modified/dirty", line.State, line.Dirty)
	}
	if got := s.live[0].BusTransfers - bus0; got != 1 {
		t.Errorf("upgrade cost %d bus transfers, want exactly 1", got)
	}
}

// TestWriteUpgradeSingleCore is the degenerate case: with one core there are
// no peers, so a store to an Exclusive line upgrades silently — no
// invalidations, no bus transfer.
func TestWriteUpgradeSingleCore(t *testing.T) {
	s := newUpgradeSystem(t, 1)
	const block = uint64(1)
	addr := block * 32

	s.access(0, trace.Ref{Addr: addr})
	bus0 := s.live[0].BusTransfers
	s.access(0, trace.Ref{Addr: addr, Write: true})

	w, ok := s.l2s[0].Lookup(block)
	if !ok {
		t.Fatal("store dropped the only copy")
	}
	line := s.l2s[0].Line(s.l2s[0].SetIndex(block), w)
	if line.State != cachesim.Modified || !line.Dirty {
		t.Errorf("L2 line = {State %v Dirty %v}, want Modified/dirty", line.State, line.Dirty)
	}
	if got := s.live[0].BusTransfers - bus0; got != 0 {
		t.Errorf("single-core upgrade cost %d bus transfers, want 0", got)
	}
	// And once more: the Modified marker short-circuits in the L1.
	s.access(0, trace.Ref{Addr: addr, Write: true})
	if got := s.live[0].BusTransfers - bus0; got != 0 {
		t.Errorf("repeat store cost %d bus transfers, want 0", got)
	}
}

// TestDowngradeClearsL1Marker pins the marker-coherence subtlety: when a
// peer read downgrades a Modified line to Shared while the owner's L1 copy
// survives, the next store must run the full upgrade again (invalidating the
// peer), not short-circuit on a stale Modified marker.
func TestDowngradeClearsL1Marker(t *testing.T) {
	s := newUpgradeSystem(t, 2)
	const block = uint64(1)
	addr := block * 32

	// Core 0 writes the block (Modified, L1 marker set), then core 1 reads
	// it: M -> S downgrade with the dirty data written back.
	s.access(0, trace.Ref{Addr: addr, Write: true})
	s.access(1, trace.Ref{Addr: addr})
	w, ok := s.l2s[0].Lookup(block)
	if !ok {
		t.Fatal("downgrade dropped the owner's copy")
	}
	if st := s.l2s[0].Line(s.l2s[0].SetIndex(block), w).State; st != cachesim.Shared {
		t.Fatalf("owner's L2 state after peer read = %v, want Shared", st)
	}
	if _, ok := s.l1s[0].Lookup(block); !ok {
		t.Fatal("downgrade should leave the owner's L1 copy resident")
	}

	bus0 := s.live[0].BusTransfers
	s.access(0, trace.Ref{Addr: addr, Write: true})
	if got := s.live[0].BusTransfers - bus0; got != 1 {
		t.Errorf("post-downgrade store cost %d bus transfers, want 1 (upgrade must rerun)", got)
	}
	if _, ok := s.l2s[1].Lookup(block); ok {
		t.Error("post-downgrade store left the peer copy valid")
	}
}

// TestSharedStoreHitAlwaysWritesThrough pins the shared machine's "no
// Modified marker" rule: there a peer's read hit in the shared LLC
// downgrades nothing, so a marker on the writer's L1 line would let its next
// store skip the write-through and leave the peer's fresh L1 copy stale.
// Core 0 brings A into its L1 and stores to it (an L1 store hit, where the
// private machine would set the marker), core 1 reads A, then core 0 stores
// to A again: core 1's L1 copy must be gone. Multiprogrammed goldens cannot
// catch a violation — their mixes share no blocks.
func TestSharedStoreHitAlwaysWritesThrough(t *testing.T) {
	gens := []trace.Generator{
		&scriptGen{name: "manual", refs: []trace.Ref{{}}},
		&scriptGen{name: "manual", refs: []trace.Ref{{}}},
	}
	s, err := NewShared(tinyParams(2), gens, evenTiming(2))
	if err != nil {
		t.Fatal(err)
	}
	const block = uint64(1)
	addr := block * 32

	s.access(0, trace.Ref{Addr: addr})
	s.access(0, trace.Ref{Addr: addr, Write: true})
	w, ok := s.l1s[0].Lookup(block)
	if !ok {
		t.Fatal("setup: core 0 L1 lost the block it wrote")
	}
	if st := s.l1s[0].Line(s.l1s[0].SetIndex(block), w).State; st == cachesim.Modified {
		t.Fatal("shared machine set the L1 Modified marker on a store hit")
	}
	s.access(1, trace.Ref{Addr: addr})
	if _, ok := s.l1s[1].Lookup(block); !ok {
		t.Fatal("setup: core 1 L1 does not hold the block it just read")
	}

	s.access(0, trace.Ref{Addr: addr, Write: true})
	if _, ok := s.l1s[1].Lookup(block); ok {
		t.Error("second store hit left core 1's L1 copy valid")
	}
	sw, ok := s.shared.Lookup(block)
	if !ok {
		t.Fatal("store dropped the shared LLC copy")
	}
	line := s.shared.Line(s.shared.SetIndex(block), sw)
	if line.State != cachesim.Modified || !line.Dirty {
		t.Errorf("shared LLC line = {State %v Dirty %v}, want Modified/dirty", line.State, line.Dirty)
	}
}
