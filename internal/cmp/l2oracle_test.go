// Scenario tests that pin the run-to-event engine (System.Run) against the
// frozen per-reference oracle (refRun, refstep_test.go) on hand-built
// machines that the random fuzzers reach only by luck: every policy family
// under bus and memory contention, the cross-core receiver-writeback clock
// path, the exact policy call sequence, and concurrent runs of one machine.
// The L2Batch prefix is historical: these scenarios were written against
// the batched L2 engine, and the properties they check hold for every
// engine that replaces the per-reference stepping.
package cmp

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"ascc/internal/cachesim"
	"ascc/internal/coop"
	"ascc/internal/policies"
	"ascc/internal/rng"
	"ascc/internal/ssl"
	"ascc/internal/trace"
)

// buildOraclePair constructs the same machine twice with independent
// generator and policy instances: one for System.Run, one for refRun.
func buildOraclePair(t *testing.T, p Params, mkGens func() []trace.Generator,
	timing []CoreTiming, mkPol func() coop.Policy) (sys, oracle *System) {
	t.Helper()
	var err error
	if sys, err = New(p, mkGens(), timing, mkPol()); err != nil {
		t.Fatal(err)
	}
	if oracle, err = New(p, mkGens(), timing, mkPol()); err != nil {
		t.Fatal(err)
	}
	return sys, oracle
}

// TestL2BatchEquivalenceAcrossPolicies runs the engine and the oracle over
// every policy family on a contended machine (nonzero bus and memory
// occupancies, so queue-delay values depend on exact request ordering and
// timestamps) and demands bit-identical results, clocks and cache state.
func TestL2BatchEquivalenceAcrossPolicies(t *testing.T) {
	p := tinyParams(3)
	p.BusOccupancy = 4
	p.MemOccupancy = 16
	sets := p.L2.SizeBytes / p.L2.LineBytes / p.L2.Ways
	pols := map[string]func() coop.Policy{
		"baseline": func() coop.Policy { return policies.NewBaseline() },
		"CC":       func() coop.Policy { return policies.NewCC(3, 7) },
		"DSR":      func() coop.Policy { return policies.NewDSR(3, sets, p.L2.Ways, 7) },
		"ASCC":     func() coop.Policy { return policies.NewASCC(3, sets, p.L2.Ways, 7) },
		"AVGCC": func() coop.Policy {
			cfg := policies.AVGCCDefaultConfig(3, sets, p.L2.Ways, 7)
			cfg.ResizePeriod = 64
			return policies.NewASCCVariant("AVGCC", cfg)
		},
		"QoS-AVGCC": func() coop.Policy {
			cfg := policies.AVGCCDefaultConfig(3, sets, p.L2.Ways, 7)
			cfg.ResizePeriod = 64
			cfg.QoS = true
			return policies.NewASCCVariant("QoS-AVGCC", cfg)
		},
	}
	mkGens := func() []trace.Generator {
		return []trace.Generator{
			&scriptGen{name: "storm", refs: append(loopRefs(0, 4, 6, 1), trace.Ref{Addr: 0, Gap: 1, Write: true})},
			&scriptGen{name: "light", refs: loopRefs(1, 4, 3, 2)},
			&scriptGen{name: "mixed", refs: append(loopRefs(2, 4, 5, 1), trace.Ref{Addr: 2 * 32, Gap: 3, Write: true})},
		}
	}
	for name, mkPol := range pols {
		t.Run(name, func(t *testing.T) {
			sys, oracle := buildOraclePair(t, p, mkGens, evenTiming(3), mkPol)
			got := sys.Run(500, 4000)
			want := oracle.refRun(500, 4000)
			compareSystems(t, name, sys, got, oracle, want)
		})
	}
}

// TestL2BatchClockContract pins the clock every below-L1 port request
// observes: the stepping core's running clock for its own traffic, and the
// receiver's clock for receiver-side dirty writebacks triggered by an
// incoming spill. The scenario forces exactly that cross-core path: core 1
// dirties never-reused lines in set 0 (dead, dirty — guest-admission
// victims), then decays its SSL with L2 hits elsewhere so it turns
// receiver, while core 0 saturates set 0 with reused last-copy victims that
// spill into core 1 and displace the dirty lines. With nonzero occupancies,
// an engine that published the wrong clock would shift the writeback's
// queue delay and diverge from the oracle.
func TestL2BatchClockContract(t *testing.T) {
	p := tinyParams(2)
	p.BusOccupancy = 4
	p.MemOccupancy = 16
	sets := p.L2.SizeBytes / p.L2.LineBytes / p.L2.Ways
	mkPol := func() coop.Policy {
		cfg := policies.AVGCCDefaultConfig(2, sets, p.L2.Ways, 3)
		cfg.ResizePeriod = 1 << 20 // no resizes: roles evolve only via SSL
		cfg.Granularity = 0        // per-set counters
		cfg.Dynamic = false
		return policies.NewASCCVariant("ASCC", cfg)
	}
	mkGens := func() []trace.Generator {
		// Core 0: L2 set-0 storm, re-references at distance 3 (past the
		// 2-way L1, inside the 4-way L2) so victims are reused.
		storm := make([]trace.Ref, 0, 10)
		for _, b := range []uint64{0, 4, 8, 12, 0, 4, 8, 12, 16, 20} {
			storm = append(storm, trace.Ref{Addr: b * 32, Gap: 1})
		}
		// Core 1: dirty four set-0 blocks once (dead + dirty guests-to-be),
		// then loop L2 hits in sets 1-3 to decay the set-0 SSL's cache-wide
		// pressure and keep the cache receiving.
		recv := []trace.Ref{
			{Addr: 24 * 32, Gap: 1, Write: true}, {Addr: 28 * 32, Gap: 1, Write: true},
			{Addr: 32 * 32, Gap: 1, Write: true}, {Addr: 36 * 32, Gap: 1, Write: true},
		}
		recv = append(recv, loopRefs(1, 4, 6, 1)...)
		recv = append(recv, loopRefs(2, 4, 6, 1)...)
		return []trace.Generator{
			&scriptGen{name: "storm", refs: storm},
			&scriptGen{name: "recv", refs: recv},
		}
	}
	sys, oracle := buildOraclePair(t, p, mkGens, evenTiming(2), mkPol)
	got := sys.Run(0, 6000)
	want := oracle.refRun(0, 6000)
	compareSystems(t, "clock", sys, got, oracle, want)
	if got.Cores[0].SpillsOut == 0 && got.Cores[0].Swaps == 0 {
		t.Fatalf("scenario failed to spill or swap: %+v", got.Cores[0])
	}
	if got.Cores[1].Writebacks == 0 {
		t.Fatalf("scenario produced no receiver-side writebacks: %+v", got.Cores[1])
	}
	if got.Cores[1].QueueDelay == 0 {
		t.Fatalf("receiver accrued no queue delay: %+v", got.Cores[1])
	}
}

// spyPolicy wraps a real policy and records the full call sequence,
// including returned values where they feed the engine's decisions.
type spyPolicy struct {
	inner coop.Policy
	log   []string
}

func (s *spyPolicy) rec(format string, args ...any) {
	s.log = append(s.log, fmt.Sprintf(format, args...))
}

func (s *spyPolicy) Name() string { return s.inner.Name() }
func (s *spyPolicy) OnL2Access(c, set int, hit bool) {
	s.rec("OnL2Access(%d,%d,%v)", c, set, hit)
	s.inner.OnL2Access(c, set, hit)
}
func (s *spyPolicy) Role(c, set int) ssl.Role {
	r := s.inner.Role(c, set)
	s.rec("Role(%d,%d)=%v", c, set, r)
	return r
}
func (s *spyPolicy) Receivers(c, set int) []int {
	r := s.inner.Receivers(c, set)
	s.rec("Receivers(%d,%d)=%v", c, set, r)
	return r
}
func (s *spyPolicy) OnSpillFail(c, set int) {
	s.rec("OnSpillFail(%d,%d)", c, set)
	s.inner.OnSpillFail(c, set)
}
func (s *spyPolicy) InsertPos(c, set int) cachesim.InsertPos {
	p := s.inner.InsertPos(c, set)
	s.rec("InsertPos(%d,%d)=%v", c, set, p)
	return p
}
func (s *spyPolicy) SpillInsertPos(c, set int, guestReused bool) cachesim.InsertPos {
	p := s.inner.SpillInsertPos(c, set, guestReused)
	s.rec("SpillInsertPos(%d,%d,%v)=%v", c, set, guestReused, p)
	return p
}
func (s *spyPolicy) AllowRespill() bool       { return s.inner.AllowRespill() }
func (s *spyPolicy) SpillRequiresReuse() bool { return s.inner.SpillRequiresReuse() }
func (s *spyPolicy) SwapEnabled() bool        { return s.inner.SwapEnabled() }
func (s *spyPolicy) GuestVictim() coop.GuestVictimMode {
	return s.inner.GuestVictim()
}
func (s *spyPolicy) DemandVictimAllow(c, set int) func(int) bool {
	return s.inner.DemandVictimAllow(c, set)
}
func (s *spyPolicy) SpillVictimAllow(c, set int) func(int) bool {
	return s.inner.SpillVictimAllow(c, set)
}
func (s *spyPolicy) Tick(c int, accesses uint64) {
	s.rec("Tick(%d,%d)", c, accesses)
	s.inner.Tick(c, accesses)
}

// TestL2BatchPolicyCallSequence proves the engine's run-to-event stepping
// is unobservable to policies: the exact sequence of policy invocations
// (training events, ticks, roles, receiver draws, insertion positions —
// with arguments and returned values) is identical to the oracle's.
func TestL2BatchPolicyCallSequence(t *testing.T) {
	p := tinyParams(2)
	p.BusOccupancy = 2
	p.MemOccupancy = 8
	sets := p.L2.SizeBytes / p.L2.LineBytes / p.L2.Ways
	mkSpy := func() *spyPolicy {
		cfg := policies.AVGCCDefaultConfig(2, sets, p.L2.Ways, 11)
		cfg.ResizePeriod = 32
		return &spyPolicy{inner: policies.NewASCCVariant("AVGCC", cfg)}
	}
	mkGens := func() []trace.Generator {
		return []trace.Generator{
			&scriptGen{name: "a", refs: append(loopRefs(0, 4, 6, 1), trace.Ref{Addr: 4 * 32, Gap: 1, Write: true})},
			&scriptGen{name: "b", refs: loopRefs(1, 4, 3, 2)},
		}
	}
	spyA, spyB := mkSpy(), mkSpy()
	sys, err := New(p, mkGens(), evenTiming(2), spyA)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := New(p, mkGens(), evenTiming(2), spyB)
	if err != nil {
		t.Fatal(err)
	}
	resA := sys.Run(200, 2500)
	resB := oracle.refRun(200, 2500)
	if !reflect.DeepEqual(resA, resB) {
		t.Fatalf("results diverge under spy:\nengine: %+v\noracle: %+v", resA, resB)
	}
	if len(spyA.log) == 0 {
		t.Fatal("spy recorded no policy calls")
	}
	if len(spyA.log) != len(spyB.log) {
		t.Fatalf("call counts diverge: engine %d, oracle %d", len(spyA.log), len(spyB.log))
	}
	for i := range spyA.log {
		if spyA.log[i] != spyB.log[i] {
			t.Fatalf("call %d diverges:\nengine: %s\noracle: %s", i, spyA.log[i], spyB.log[i])
		}
	}
}

// TestL2BatchGroupProbeAgreement checks the group's holder probes
// (HolderMask and LastCopy, answered by the coherence directory) against
// per-cache lookups on live post-run cache state, where cross-core sharing
// has left blocks with zero, one and several holders.
func TestL2BatchGroupProbeAgreement(t *testing.T) {
	p := tinyParams(2)
	mkGens := func() []trace.Generator {
		return []trace.Generator{
			&scriptGen{name: "a", refs: loopRefs(0, 4, 6, 1)},
			&scriptGen{name: "b", refs: loopRefs(0, 4, 3, 1)},
		}
	}
	sys, err := New(p, mkGens(), evenTiming(2), policies.NewBaseline())
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(0, 2000)
	if !sys.group.DirectoryEnabled() {
		t.Fatal("directory is off on a default machine")
	}
	shared := 0
	for b := uint64(0); b < 32; b++ {
		var want uint64
		for c := 0; c < 2; c++ {
			if _, ok := sys.L2(c).Lookup(b); ok {
				want |= 1 << c
			}
		}
		if want == 3 {
			shared++
		}
		if got := sys.group.HolderMask(b); got != want {
			t.Errorf("block %d: HolderMask %b, per-cache lookups %b", b, got, want)
		}
		for c := 0; c < 2; c++ {
			if got, want := sys.group.LastCopy(b, c), want&^(1<<c) == 0; got != want {
				t.Errorf("block %d except %d: LastCopy %v, want %v", b, c, got, want)
			}
		}
	}
	if shared == 0 {
		t.Fatal("scenario left no block held by both cores")
	}
}

// TestParallelDeterminism runs one conflict-heavy 8-core machine as 1, 2, 4
// and 8 independent Systems on concurrent goroutines — as the harness pool
// runs simulations — and demands each bit-identical to the frozen oracle:
// frozen stats, final clocks, batch cursors, complete cache state. Under
// -race in `make race` it also checks that Systems share no mutable state.
func TestParallelDeterminism(t *testing.T) {
	const cores, quota = 8, 30_000
	p := tinyParams(cores)
	r := rng.New(0x5eed)
	body := make([]byte, 3*cores*40)
	for i := range body {
		body[i] = byte(r.Uint64())
	}
	timing := make([]CoreTiming, cores)
	for i := range timing {
		timing[i] = CoreTiming{BaseCPI: 1 + float64(i%3)/2, Overlap: 0.5}
	}
	oracle := fuzzSystem(t, p, body, cores, 1, timing)
	want := oracle.refRun(quota/10, quota)
	for _, par := range []int{1, 2, 4, 8} {
		systems := make([]*System, par)
		results := make([]Results, par)
		for i := range systems {
			systems[i] = fuzzSystem(t, p, body, cores, 1, timing)
		}
		var wg sync.WaitGroup
		for i := range systems {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i] = systems[i].Run(quota/10, quota)
			}(i)
		}
		wg.Wait()
		for i := range systems {
			compareSystems(t, fmt.Sprintf("par%d/%d", par, i), systems[i], results[i], oracle, want)
		}
	}
}
