// Package coop defines the interface between the CMP engine (internal/cmp)
// and the cooperative last-level-cache policies (internal/policies).
//
// The engine drives the memory hierarchy and consults the policy at each L2
// event: to update its counters, to classify sets as spillers/receivers, to
// pick spill destinations, and to choose insertion positions. Everything a
// policy can observe in the paper's hardware descriptions (hits, misses,
// spill failures, access counts) flows through these callbacks, so each
// published design maps onto one implementation of Policy.
package coop

import (
	"ascc/internal/cachesim"
	"ascc/internal/ssl"
)

// Policy is a cooperative-caching design for a CMP with private LLCs.
// Implementations are single-threaded: the engine serialises calls.
type Policy interface {
	// Name identifies the design ("baseline", "DSR", "ASCC", ...).
	Name() string

	// OnL2Access is called for every demand access to LLC c (set index set)
	// once the local hit/miss outcome is known. This is where saturation
	// counters, PSELs and miss counters are trained.
	OnL2Access(c, set int, hit bool)

	// Role classifies (c, set) for the spilling mechanism. The engine spills
	// a last-copy victim only when the evicting set is a Spiller, and only
	// into caches whose same-index set is a Receiver.
	Role(c, set int) ssl.Role

	// Receivers returns the caches eligible to receive a spill from (c,
	// set), in preference order (the engine tries them until one admits
	// the guest). Empty means no candidate. Implementations must not list
	// c itself, and may reuse the returned slice between calls.
	Receivers(c, set int) []int

	// OnSpillFail is called when a spiller set's eviction found no receiver
	// (ASCC reacts by switching the set to SABIP insertion).
	OnSpillFail(c, set int)

	// InsertPos returns the recency position for a demand fill into (c,
	// set). Probabilistic policies (BIP/SABIP) sample internally, so each
	// call may answer differently.
	InsertPos(c, set int) cachesim.InsertPos

	// SpillInsertPos returns the recency position for a spilled line
	// arriving at receiver (c, set). guestReused reports whether the line
	// was hit at least once during its previous residence — evidence of
	// locality that placement policies may reward.
	SpillInsertPos(c, set int, guestReused bool) cachesim.InsertPos

	// AllowRespill reports whether a line that was itself spilled in may be
	// spilled again on eviction (false implements CC-style one-chance
	// forwarding; ASCC relies on its SSL conditions instead).
	AllowRespill() bool

	// SpillRequiresReuse reports whether only victims that were reused
	// during their residence are worth spilling. An unreused victim in a
	// spiller set then takes the capacity path instead (OnSpillFail), which
	// is what lets SABIP bootstrap reuse in thrashing sets. Streaming
	// applications' dead lines are never spilled under this filter.
	SpillRequiresReuse() bool

	// SwapEnabled reports whether the paper's last-copy swap on remote hits
	// (§3.2) is active — true for the ASCC family.
	SwapEnabled() bool

	// DemandVictimAllow optionally restricts which ways a demand fill in
	// (c, set) may evict; nil means any way. Used by region-partitioned
	// designs (ECC private region).
	DemandVictimAllow(c, set int) func(way int) bool

	// SpillVictimAllow optionally restricts which ways an incoming spill in
	// (c, set) may evict; nil means any way (ECC shared region).
	SpillVictimAllow(c, set int) func(way int) bool

	// GuestVictim selects how a receiver set chooses the line an incoming
	// guest displaces.
	GuestVictim() GuestVictimMode

	// Tick is called after every demand access to LLC c with that cache's
	// running access count; periodic work (AVGCC granularity re-evaluation,
	// QoS ratio recomputation, ECC repartitioning) hooks in here.
	Tick(c int, accesses uint64)
}

// GuestVictimMode selects how a receiver set makes room for a guest.
type GuestVictimMode int

const (
	// GuestAnyLRU evicts the receiver set's plain LRU victim (CC, DSR).
	GuestAnyLRU GuestVictimMode = iota
	// GuestDeadLines admits a guest only over an invalid or never-reused
	// line, with second-chance aging (cachesim.VictimDead); a set whose
	// lines are all live rejects the spill. Used by the ASCC family: the
	// paper defines receivers as sets with underutilised lines, and this is
	// the line-level check of that property.
	GuestDeadLines
	// GuestRegion restricts guests to the ways allowed by
	// SpillVictimAllow (ECC's shared region).
	GuestRegion
)

// Base provides neutral defaults so simple policies only override what they
// use: never spill, MRU insertion, no restrictions, no periodic work.
type Base struct{}

// OnL2Access implements Policy.
func (Base) OnL2Access(c, set int, hit bool) {}

// Role implements Policy: everything neutral, so no spilling ever happens.
func (Base) Role(c, set int) ssl.Role { return ssl.Neutral }

// Receivers implements Policy.
func (Base) Receivers(c, set int) []int { return nil }

// GuestVictim implements Policy.
func (Base) GuestVictim() GuestVictimMode { return GuestAnyLRU }

// OnSpillFail implements Policy.
func (Base) OnSpillFail(c, set int) {}

// InsertPos implements Policy.
func (Base) InsertPos(c, set int) cachesim.InsertPos { return cachesim.InsertMRU }

// SpillInsertPos implements Policy.
func (Base) SpillInsertPos(c, set int, guestReused bool) cachesim.InsertPos {
	return cachesim.InsertMRU
}

// AllowRespill implements Policy.
func (Base) AllowRespill() bool { return false }

// SpillRequiresReuse implements Policy.
func (Base) SpillRequiresReuse() bool { return false }

// SwapEnabled implements Policy.
func (Base) SwapEnabled() bool { return false }

// DemandVictimAllow implements Policy.
func (Base) DemandVictimAllow(c, set int) func(way int) bool { return nil }

// SpillVictimAllow implements Policy.
func (Base) SpillVictimAllow(c, set int) func(way int) bool { return nil }

// Tick implements Policy.
func (Base) Tick(c int, accesses uint64) {}
