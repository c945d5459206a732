// Set-sampled fast-path support (DESIGN.md §16): the spec derivation shared
// with the harness's stream filtering, the set-index translation that lets
// unmodified policies drive a compact machine, and the scaled accounting
// that reconstructs full-run-comparable results.
package cmp

import (
	"ascc/internal/cachesim"
	"ascc/internal/coop"
	"ascc/internal/ssl"
	"ascc/internal/trace"
)

// sampleSDMSets mirrors the policies' default SDM leader count
// (internal/policies: SDMSets = 32, leader stride = max(sets/SDMSets, 4)).
// The spec derivation pins the leader residues from the same formula so the
// sampled sets always contain the monitor sets the policies train on;
// trace's TestSampleSpecLeaders and the two-arm FuzzSampleEquivalence hold
// the coupling together.
const sampleSDMSets = 32

// SampleSpec derives the deterministic set sample for this machine (nil
// when SampleDen <= 1). The harness uses the same spec to filter the
// reference streams it feeds New; both sides are pure functions of the
// Params, so they can never disagree.
func (p Params) SampleSpec() (*trace.SampleSpec, error) {
	if p.SampleDen <= 1 {
		return nil, nil
	}
	l1Sets := p.L1.SizeBytes / p.L1.LineBytes / p.L1.Ways
	l2Sets := p.L2.SizeBytes / p.L2.LineBytes / p.L2.Ways
	stride := l2Sets / sampleSDMSets
	if stride < 4 {
		stride = 4
	}
	return trace.NewSampleSpec(l2Sets, l1Sets, p.L2.LineBytes, p.SampleDen, stride)
}

// wrapSampledPolicy translates the compact machine's set indices back to
// full-geometry indices at the coop.Policy boundary. The policy is
// constructed for (and reasons about) the full machine; the engine runs
// compact sets; the wrapper is the only place the two views meet, so the
// engine and the frozen per-reference oracle both work unchanged.
func wrapSampledPolicy(p coop.Policy, spec *trace.SampleSpec) coop.Policy {
	orig := make([]int32, spec.CompactSets())
	for cs := range orig {
		orig[cs] = int32(spec.OrigSet(cs))
	}
	return &sampledPolicy{Policy: p, orig: orig}
}

// sampledPolicy wraps every set-taking Policy method with the compact->full
// translation; the set-free methods pass through the embedded interface.
type sampledPolicy struct {
	coop.Policy
	orig []int32 // compact set index -> full-geometry set index
}

func (w *sampledPolicy) OnL2Access(c, set int, hit bool) {
	w.Policy.OnL2Access(c, int(w.orig[set]), hit)
}

func (w *sampledPolicy) Role(c, set int) ssl.Role {
	return w.Policy.Role(c, int(w.orig[set]))
}

func (w *sampledPolicy) Receivers(c, set int) []int {
	return w.Policy.Receivers(c, int(w.orig[set]))
}

func (w *sampledPolicy) OnSpillFail(c, set int) {
	w.Policy.OnSpillFail(c, int(w.orig[set]))
}

func (w *sampledPolicy) InsertPos(c, set int) cachesim.InsertPos {
	return w.Policy.InsertPos(c, int(w.orig[set]))
}

func (w *sampledPolicy) SpillInsertPos(c, set int, guestReused bool) cachesim.InsertPos {
	return w.Policy.SpillInsertPos(c, int(w.orig[set]), guestReused)
}

func (w *sampledPolicy) DemandVictimAllow(c, set int) func(way int) bool {
	return w.Policy.DemandVictimAllow(c, int(w.orig[set]))
}

func (w *sampledPolicy) SpillVictimAllow(c, set int) func(way int) bool {
	return w.Policy.SpillVictimAllow(c, int(w.orig[set]))
}

// ScaleSampled reconstructs full-run-comparable results from a sampled
// run's raw counters (the identity when SampleDen <= 1; Run's return stays
// raw so the differential walls compare exact values). Instruction counts
// are faithful — the filtered streams carry the skipped references'
// instruction gaps, so the run boundary differs from the full run's by at
// most one merged gap — and the BaseCPI share of each core's cycles with
// them; the memory
// share and every traffic counter are per-sampled-set quantities scaled by
// the denominator. Ratio metrics (CPI, MPKI, AML, weighted speedup) then
// estimate the full run's; DESIGN.md §16 derives which are exact and which
// approximate, and the `sampling` experiment pins the measured error.
func (s *System) ScaleSampled(r Results) Results {
	den := s.p.SampleDen
	if den <= 1 {
		return r
	}
	d, df := uint64(den), float64(den)
	out := Results{Policy: r.Policy, Cores: make([]CoreStats, len(r.Cores)), CoherenceProbes: r.CoherenceProbes}
	for i, c := range r.Cores {
		base := float64(c.Instructions) * s.timing[i].BaseCPI
		c.Cycles = base + (c.Cycles-base)*df
		c.L1Accesses *= d
		c.L1Hits *= d
		c.L2Accesses *= d
		c.L2LocalHits *= d
		c.L2RemoteHits *= d
		c.L2MemFills *= d
		c.LatencySum *= df
		c.QueueDelay *= df
		c.Writebacks *= d
		c.OffChip *= d
		c.SpillsOut *= d
		c.SpillsIn *= d
		c.Swaps *= d
		c.SpillHits *= d
		c.PrefIssued *= d
		c.PrefUseful *= d
		c.BusTransfers *= d
		out.Cores[i] = c
	}
	return out
}
