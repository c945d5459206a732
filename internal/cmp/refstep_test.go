package cmp

import "math"

// This file freezes the pre-burst per-reference stepping loop — the
// runPhase body that shipped with the batched-generation rewrite — as the
// differential oracle for the run-to-event burst kernel. It is verbatim
// except for the mechanical refs/refPos -> trace.Batch cursor rename, and
// it must NOT be "improved": FuzzBurstEquivalence and the phase benchmark
// compare the live engine against exactly this stepping.

// refRunPhase advances every core to the quota, one reference at a time:
// per reference it publishes the core clock twice, calls the general
// access path and updates CoreStats field by field.
func (s *System) refRunPhase(quota uint64) {
	n := s.p.Cores
	for {
		// Rescan the frontier: the smallest clock (lowest index winning
		// ties) and the second-smallest value.
		c := -1
		best := 0.0
		second := math.Inf(1)
		for i := 0; i < n; i++ {
			if s.done[i] {
				continue
			}
			ci := s.clock[i]
			switch {
			case c == -1:
				c, best = i, ci
			case ci < best:
				c, best, second = i, ci, best
			case ci < second:
				second = ci
			}
		}
		if c < 0 {
			return
		}
		// Step the minimum core until it crosses the runner-up or retires.
		st := &s.live[c]
		t := s.timing[c]
		gen := s.gens[c]
		bt := &s.batches[c]
		clock := s.clock[c]
		for {
			if bt.Empty() {
				bt.Refill(gen)
			}
			ref := bt.Refs[bt.Pos]
			bt.Pos++
			instr := uint64(ref.Gap) + 1
			st.Instructions += instr
			clock += float64(instr) * t.BaseCPI
			// The access path reads s.clock[c] (bus and memory queueing), so
			// the local clock is published before descending.
			s.clock[c] = clock
			lat := s.access(c, ref)
			clock += lat * t.Overlap
			s.clock[c] = clock
			st.Cycles = clock
			if st.Instructions >= quota {
				s.frozen[c] = *st
				s.done[c] = true
				break
			}
			if clock >= second {
				break
			}
		}
	}
}

// refRun mirrors System.Run over the frozen stepping loop.
func (s *System) refRun(warmup, instrPerCore uint64) Results {
	if warmup > 0 {
		s.refRunPhase(warmup)
		for i := range s.live {
			s.live[i] = CoreStats{}
			s.clock[i] = 0
			s.done[i] = false
		}
		s.bus.Reset()
		s.memPort.Reset()
	}
	s.refRunPhase(instrPerCore)
	res := Results{Policy: s.policyName(), Cores: make([]CoreStats, s.p.Cores), CoherenceProbes: s.CoherenceProbes()}
	copy(res.Cores, s.frozen)
	return res
}
