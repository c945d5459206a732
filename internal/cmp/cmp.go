// Package cmp implements the chip-multiprocessor simulator: private L1/L2
// hierarchies per core, MESI-style coherence between the private L2s (a
// coherence directory answers every holder query; the broadcast per-L2
// lookup survives only as a test reference), the cooperative spilling/swap
// mechanics the policies drive, a trace-driven timing model, and the
// shared-LLC alternative of §6.1. Both machines run on one engine (System);
// they differ only in the descent below the L1.
//
// The engine is deterministic: all inter-core interaction happens in the
// serial frontier turn order. Experiments compare policies on bit-identical
// reference streams, which is what the paper's relative improvements
// measure.
package cmp

import (
	"fmt"
	"math"
	"math/bits"

	"ascc/internal/cachesim"
	"ascc/internal/coop"
	"ascc/internal/mem"
	"ascc/internal/prefetch"
	"ascc/internal/ssl"
	"ascc/internal/trace"
)

// Params describes the simulated machine. Latencies are in core cycles at
// the paper's 4 GHz (Table 2: 9-cycle local L2 hit, 25-cycle remote hit,
// 115 ns ≈ 460-cycle memory).
type Params struct {
	Cores int

	L1 cachesim.Config
	L2 cachesim.Config

	L2LocalHitCycles  float64
	L2RemoteHitCycles float64
	MemLatencyCycles  float64

	// BusOccupancy / MemOccupancy are the cycles each transfer holds the
	// shared on-chip bus and off-chip memory port (the bandwidth model).
	BusOccupancy float64
	MemOccupancy float64

	// Prefetch enables the per-LLC 16 kB stride prefetcher of §6.3
	// (prefetch.Default16KB).
	Prefetch bool

	// SampleDen, when > 1, runs the set-sampled fast path (DESIGN.md §16):
	// the machine is built at 1/SampleDen of the L2 sets (the deterministic,
	// leader-including residue sample of trace.SampleSpec) and the caller
	// must feed it the correspondingly filtered and rewritten reference
	// streams (SampleSpec.View — the harness wires this). Per-set state and
	// raw counters are then exactly a full-geometry machine's on the same
	// filtered streams (FuzzSampleEquivalence); System.ScaleSampled
	// reconstructs full-run-comparable cycles and counters. 0 and 1 are
	// full fidelity. Incompatible with Prefetch, whose stride tables carry
	// cross-set address deltas that filtering destroys.
	SampleDen int

	// SyncSlack coarsens the cross-core interleave by letting the minimum-
	// clock core run that many cycles past the frontier runner-up before
	// yielding its turn. 0 (the default) is the exact per-reference sync
	// every full-fidelity run uses. The knob exists for the set-sampled fast
	// path, whose cross-core interleave is already approximate: the clock
	// trajectories a sampled run walks are the full run's, so without slack
	// the turn count stays at full-fidelity levels while the references per
	// turn shrink by SampleDen, and the per-turn bookkeeping swamps the
	// kernel. A slack of a fraction of one memory round trip keeps the
	// interleave skew within the magnitude of the skew a single full-
	// fidelity event already causes, while recovering most of the full-
	// fidelity references-per-turn. The harness sets this for sampled runs
	// (harness.Config.Params); the `sampling` experiment golden pins the
	// resulting accuracy. Single-core runs have no frontier, so the
	// FuzzSampleEquivalence exactness claim is slack-independent there.
	SyncSlack float64

	// broadcast disables the coherence directory (DESIGN.md
	// §13) and answers holder-mask queries with one Lookup per L2.
	// Results are bit-identical either way; the field is unexported so the
	// broadcast lookups stay reachable only as the reference this package's
	// differential tests compare the directory against
	// (FuzzDirectoryEquivalence).
	broadcast bool
}

// DefaultParams returns the paper's Table 2 machine with the geometry scale
// divisor applied (DESIGN.md §5): scale 1 is the paper's exact machine,
// scale 8 is the fast configuration used by tests and benches.
func DefaultParams(cores, scale int) Params {
	if scale < 1 {
		panic(fmt.Sprintf("cmp: scale %d < 1", scale))
	}
	return Params{
		Cores:             cores,
		L1:                cachesim.Config{SizeBytes: 32 * 1024 / scale, Ways: cachesim.L1Ways, LineBytes: 32},
		L2:                cachesim.Config{SizeBytes: 1024 * 1024 / scale, Ways: 8, LineBytes: 32},
		L2LocalHitCycles:  9,
		L2RemoteHitCycles: 25,
		MemLatencyCycles:  460,
		BusOccupancy:      4,
		MemOccupancy:      16,
	}
}

// ErrL1Ways rejects an L1 whose associativity is not cachesim.L1Ways, the
// one geometry the L1 burst kernel is written for.
var ErrL1Ways = fmt.Errorf("cmp: the L1 must be %d-way", cachesim.L1Ways)

// Validate checks the machine description.
func (p Params) Validate() error {
	if p.Cores <= 0 {
		return fmt.Errorf("cmp: non-positive core count %d", p.Cores)
	}
	if p.Cores > 64 {
		return fmt.Errorf("cmp: core count %d exceeds the 64-bit holder-mask limit", p.Cores)
	}
	if err := p.L1.Validate(); err != nil {
		return err
	}
	if p.L1.Ways != cachesim.L1Ways {
		return fmt.Errorf("%w, not %d-way", ErrL1Ways, p.L1.Ways)
	}
	if err := p.L2.Validate(); err != nil {
		return err
	}
	if p.L1.LineBytes != p.L2.LineBytes {
		return fmt.Errorf("cmp: L1 line %dB != L2 line %dB", p.L1.LineBytes, p.L2.LineBytes)
	}
	if p.SampleDen > 1 {
		if p.Prefetch {
			return fmt.Errorf("cmp: set sampling (1/%d) is incompatible with the stride prefetcher (cross-set state)", p.SampleDen)
		}
		if _, err := p.SampleSpec(); err != nil {
			return err
		}
	}
	return nil
}

// CoreTiming carries the per-benchmark timing-model parameters: the CPI of
// non-memory work and the fraction of memory latency the out-of-order core
// cannot hide (see internal/workload.Profile).
type CoreTiming struct {
	BaseCPI float64
	Overlap float64
}

// CoreStats is everything measured for one core, frozen when the core
// commits its instruction quota.
type CoreStats struct {
	Instructions uint64
	Cycles       float64

	L1Accesses uint64
	L1Hits     uint64

	L2Accesses   uint64 // demand accesses (L1 misses)
	L2LocalHits  uint64
	L2RemoteHits uint64
	L2MemFills   uint64

	LatencySum float64 // raw (un-overlapped) latency over demand L2 accesses
	QueueDelay float64 // bus + memory queueing included in LatencySum

	Writebacks uint64 // dirty evictions written to memory
	OffChip    uint64 // memory fills + writebacks + prefetch fetches

	SpillsOut uint64 // last-copy victims this cache pushed to a peer
	SpillsIn  uint64 // guest lines accepted
	Swaps     uint64 // §3.2 last-copy swaps performed on remote hits
	SpillHits uint64 // remote hits served by lines this core had spilled

	PrefIssued uint64
	PrefUseful uint64

	BusTransfers uint64
}

// CPI returns cycles per committed instruction.
func (s CoreStats) CPI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return s.Cycles / float64(s.Instructions)
}

// MPKI returns L2 misses (remote hits and memory fills both miss the local
// L2; the paper's L2 MPKI counts local misses) per kilo-instruction.
func (s CoreStats) MPKI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.L2RemoteHits+s.L2MemFills) / float64(s.Instructions) * 1000
}

// AML returns the average memory latency per demand L2 access, the paper's
// Figure 10 metric (sequential-processing assumption).
func (s CoreStats) AML() float64 {
	if s.L2Accesses == 0 {
		return 0
	}
	return s.LatencySum / float64(s.L2Accesses)
}

// Results is the outcome of one simulation.
type Results struct {
	Policy string
	Cores  []CoreStats
	// CoherenceProbes is System.CoherenceProbes at the end of the run:
	// holder-mask queries over warmup and measurement together. It is a raw
	// count — ScaleSampled leaves it unscaled — and 0 on the shared machine.
	CoherenceProbes uint64
}

// TotalOffChip sums off-chip accesses over the cores.
func (r Results) TotalOffChip() uint64 {
	var n uint64
	for _, c := range r.Cores {
		n += c.OffChip
	}
	return n
}

// refBatch is how many references step prefetches per core per NextBatch
// call: large enough to amortise the dynamic dispatch into the generator,
// small enough that the per-core buffers stay resident in L1.
const refBatch = 64

// coreBuf is one core's decoded-reference buffer and its run-ahead log
// over it, with the log's storage: the recency word saved per batch
// position.
type coreBuf struct {
	refs  [refBatch]trace.Ref
	saved [refBatch]uint64
	log   cachesim.HitLog
}

// System is the simulated CMP: the private-LLC machine (New) or the
// shared-LLC machine of §6.1 (NewShared). Both share the core side — L1s,
// batches, clocks, the frontier and the burst kernel — and differ only in
// the descent below the L1, which the engine picks at the miss and upgrade
// events with a nil check on shared.
type System struct {
	p      Params
	policy coop.Policy // nil on the shared machine
	gens   []trace.Generator
	timing []CoreTiming

	l1s []*cachesim.Cache
	// group holds the private L2s; the coherence paths ask it holder-mask
	// questions instead of snooping each peer cache separately. l2s are its
	// members.
	group *cachesim.CacheGroup
	l2s   []*cachesim.Cache
	pf    []*prefetch.Stride

	// shared is the shared machine's one aggregate LLC (NewShared); nil on
	// the private machine, whose LLCs are group/l2s.
	shared *cachesim.Cache

	bus     mem.Port
	memPort mem.Port

	clock      []float64
	live       []CoreStats
	frozen     []CoreStats
	done       []bool
	l2Accesses []uint64

	// batches are the per-core decoded-reference buffers the burst kernel
	// consumes from (views into bufs, one allocation for every core);
	// unconsumed references survive phase boundaries, so the per-core
	// streams are identical to unbatched generation.
	batches []trace.Batch
	bufs    []coreBuf

	// ahead is whether cores run ahead of the frontier on L1 hits (see
	// runPhase): on unless SyncSlack is set. bufs[c].log holds core c's
	// run-ahead hits.
	ahead bool

	// front is runPhase's frontier scratch: active core indices kept
	// sorted by (clock, index), so each turn reads the minimum core and
	// the runner-up's clock in O(1) and re-inserts the stepped core
	// instead of rescanning every clock. active is the part of it still
	// running.
	front  []int32
	active []int32

	// The event being resolved below the L1: the stepping core, and the
	// clock its event reference started at. A peer's run-ahead hits are
	// ordered against this key (settle, exactClock). lowered records that
	// settle moved a peer back in the frontier, so the stepping core's
	// runner-up bound must be re-read.
	stepper int
	at      float64
	lowered bool

	// runAhead counts what running ahead did (tests): hits consumed past
	// the frontier, settles that undid some, and receiver clocks that
	// exactClock read from a log rather than the published clock.
	runAhead struct{ hits, rollbacks, logClocks uint64 }

	lineShift uint

	// released is set by Release, after which the caches' storage belongs
	// to the next system built.
	released bool
}

// New builds the private-LLC machine. gens and timing must have p.Cores
// entries; policy must not be nil (use policies.NewBaseline() for the plain
// private LLC).
func New(p Params, gens []trace.Generator, timing []CoreTiming, policy coop.Policy) (*System, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if policy == nil {
		return nil, fmt.Errorf("cmp: nil policy")
	}
	s, err := newSystem(p, gens, timing)
	if err != nil {
		return nil, err
	}
	if spec, _ := p.SampleSpec(); spec != nil { // Validate returned its error
		// Set-sampled fast path: the policy keeps seeing full-geometry set
		// indices through the translating wrapper, so its SDM classes, PSEL
		// training, per-set quotas and RNG draw sequence are exactly the
		// full machine's on the same filtered streams.
		policy = wrapSampledPolicy(policy, spec)
	}
	s.policy = policy
	s.group = cachesim.NewGroup(p.Cores, s.p.L2)
	s.l2s = make([]*cachesim.Cache, p.Cores)
	for i := range s.l2s {
		s.l2s[i] = s.group.Cache(i)
	}
	if p.Prefetch {
		s.pf = make([]*prefetch.Stride, p.Cores)
		for i := range s.pf {
			s.pf[i] = prefetch.Default16KB()
		}
	}
	if !p.broadcast {
		s.group.EnableDirectory()
	}
	return s, nil
}

// NewShared builds the shared-LLC machine the paper compares against in
// §6.1 from the private machine's Params: one LLC of the private caches'
// aggregate capacity (p.L2 × Cores), banked and address-interleaved, which
// every core reaches at a uniform average latency of L2LocalHitCycles ×
// Cores, never under 2× (the paper's "almost twice" for 2 cores and "almost
// four times" for 4). Memory latency, memory occupancy and SampleDen come
// straight from p; the shared machine has no prefetcher and, having no
// cooperation policy, reports Results.Policy "shared-LLC". A sampled shared
// machine takes the streams filtered with p's SampleSpec (the aggregate
// L2's set count is a multiple of the same residue granule, and the shared
// cache is purely set-local), and it keeps the exact per-reference sync:
// p.SyncSlack is ignored.
func NewShared(p Params, gens []trace.Generator, timing []CoreTiming) (*System, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// From here p describes the machine the engine runs: L2 is the
	// aggregate LLC and L2LocalHitCycles its banked hit latency.
	p.L2.SizeBytes *= p.Cores
	if err := p.L2.Validate(); err != nil {
		return nil, err
	}
	p.L2LocalHitCycles *= math.Max(float64(p.Cores), 2)
	p.Prefetch = false
	p.SyncSlack = 0
	s, err := newSystem(p, gens, timing)
	if err != nil {
		return nil, err
	}
	s.shared = cachesim.New(s.p.L2)
	return s, nil
}

// newSystem builds the core side both machines share: the L1s, the batch
// buffers, the clocks and counters, the frontier scratch and the line
// shift. For a sampled machine (DESIGN.md §16) it first compacts both cache
// geometries to the sampled sets, so everything the constructors allocate
// indexes 1/SampleDen of the L1 and L2 sets.
func newSystem(p Params, gens []trace.Generator, timing []CoreTiming) (*System, error) {
	if len(gens) != p.Cores || len(timing) != p.Cores {
		return nil, fmt.Errorf("cmp: %d cores but %d generators / %d timings", p.Cores, len(gens), len(timing))
	}
	if p.SampleDen > 1 {
		var err error
		if p.L1, err = cachesim.SampledConfig(p.L1, p.SampleDen); err != nil {
			return nil, err
		}
		if p.L2, err = cachesim.SampledConfig(p.L2, p.SampleDen); err != nil {
			return nil, err
		}
	}
	s := &System{
		p:          p,
		gens:       gens,
		timing:     timing,
		l1s:        make([]*cachesim.Cache, p.Cores),
		bus:        mem.Port{Occupancy: p.BusOccupancy},
		memPort:    mem.Port{Occupancy: p.MemOccupancy},
		clock:      make([]float64, p.Cores),
		live:       make([]CoreStats, p.Cores),
		frozen:     make([]CoreStats, p.Cores),
		done:       make([]bool, p.Cores),
		l2Accesses: make([]uint64, p.Cores),
		batches:    make([]trace.Batch, p.Cores),
		bufs:       make([]coreBuf, p.Cores),
		front:      make([]int32, p.Cores),
	}
	s.lineShift = uint(bits.TrailingZeros(uint(p.L2.LineBytes)))
	for i := 0; i < p.Cores; i++ {
		s.l1s[i] = cachesim.New(p.L1)
		b := &s.bufs[i]
		s.batches[i] = trace.Batch{
			Refs: b.refs[:],
			Pos:  refBatch, // empty: first step refills
		}
		b.log.Bind(&s.batches[i], s.lineShift, timing[i].BaseCPI, b.saved[:])
	}
	// Under SyncSlack the sampled interleave is defined by where the slack
	// lets turns end, so a sampled machine keeps the plain stepping.
	s.ahead = p.SyncSlack == 0
	return s, nil
}

// L2 exposes core i's LLC (tests, harness introspection): its private
// cache, or on the shared machine the one cache every core shares.
func (s *System) L2(i int) *cachesim.Cache {
	if s.shared != nil {
		return s.shared
	}
	return s.l2s[i]
}

// Policy returns the active cooperation policy (nil on the shared machine).
func (s *System) Policy() coop.Policy { return s.policy }

// policyName is the Results.Policy label.
func (s *System) policyName() string {
	if s.shared != nil {
		return "shared-LLC"
	}
	return s.policy.Name()
}

// CoherenceProbes returns the number of holder-mask queries the coherence
// fabric has answered — per-L2 lookups in broadcast mode, directory lookups
// with the directory on. Counted at identical call sites in both modes
// (TestProbeCountParity), so the figures are comparable across an A/B. The
// shared machine has no coherence fabric between LLCs and answers 0.
func (s *System) CoherenceProbes() uint64 {
	if s.group == nil {
		return 0
	}
	return s.group.Probes()
}

// Release returns the system's cache storage — the L1s, the private L2
// group with its directory, or the shared LLC — to the pools the cachesim
// constructors draw from, so the next system of the same geometry reuses it
// instead of allocating. The system must not be used afterwards: Run
// panics, and so does any probe of its caches, whose slabs are nil.
// Releasing twice is a no-op.
func (s *System) Release() {
	for _, c := range s.l1s {
		c.Release()
	}
	if s.group != nil {
		s.group.Release()
	}
	if s.shared != nil {
		s.shared.Release()
	}
	s.released = true
}

// Run simulates until every core has committed instrPerCore instructions.
// A core that reaches its quota has its statistics frozen and stops: it
// leaves the interleave and touches the caches no more while the other
// cores finish. (The paper keeps finished cores running until the last one
// finishes; DESIGN.md §7 lists the difference.) Warmup instructions
// (statistics discarded, caches warmed) are run first when warmup > 0.
func (s *System) Run(warmup, instrPerCore uint64) Results {
	if s.released {
		panic("cmp: Run on a released System")
	}
	if warmup > 0 {
		s.runPhase(warmup)
		for i := range s.live {
			s.live[i] = CoreStats{}
			s.clock[i] = 0
			s.done[i] = false
		}
		s.bus.Reset()
		s.memPort.Reset()
	}
	s.runPhase(instrPerCore)
	res := Results{Policy: s.policyName(), Cores: make([]CoreStats, s.p.Cores), CoherenceProbes: s.CoherenceProbes()}
	copy(res.Cores, s.frozen)
	return res
}

// runPhase advances every core to the quota, interleaving by local time.
// Stepping a core only moves that core's clock forward, so the minimum core
// stays the minimum until it crosses the runner-up: the loop caches the
// (argmin, second-smallest) frontier and only rescans on a crossing or when
// the stepped core finishes, instead of scanning every clock per step.
//
// Within a core's turn the stepping is run-to-event (DESIGN.md §11): the
// L1 burst kernel (cachesim.ReadBurstAt) consumes consecutive latency-0
// references — L1 read hits and repeat stores to Modified lines — entirely
// inside internal/cachesim, keeping instructions, hits and the clock in
// registers, and returns only on an event: an L1 miss, a store needing the
// write-through upgrade, batch exhaustion, the instruction quota, or the
// clock crossing the frontier's runner-up. Event references are consumed
// too — the kernel performs their L1-level half (tag probe, set counters,
// recency touch, instruction-gap clock add) and returns only the below-L1
// remainder. The burst accounting is folded into CoreStats once per turn,
// and s.clock[c] is published lazily — its only readers are the bus/memory
// queueing models reached through l2Demand, and the frontier scan above,
// both of which run only after a publish.
//
// A turn does not end at the runner-up's clock but at the core's next
// event (DESIGN.md §11, run-ahead): past the runner-up the core goes on
// consuming plain L1 hits (cachesim.ReadAhead), which touch only its own
// L1 and so commute with every other core's work except a coherence action
// on that L1. Those hits are logged, and a peer event that acts on the L1
// first settles it: the hits the exact order puts after the event are
// undone (settle). Events and the quota-reaching reference still run only
// in exact (clock, core) order. The differential oracle for all of this is
// the frozen per-reference loop in refstep_test.go (FuzzBurstEquivalence).
//
// The two machines share all of this; only the upgrade and miss events
// descend differently, picked by the nil check on shared.
func (s *System) runPhase(quota uint64) {
	n := s.p.Cores
	shift := s.lineShift
	shared := s.shared
	ahead := s.ahead
	// The frontier is the active cores sorted by (clock, index) — the lex
	// order a full rescan's strict-< comparisons produce, so ties resolve
	// to the lowest index exactly as the original linear scan did. It is
	// maintained incrementally: each turn steps front[0] against the
	// runner-up front[1], then re-inserts the stepped core at its new
	// clock (or drops it at the quota), which replaces the per-turn
	// all-cores rescan with a short shift of the few cores passed. A
	// core's clock here is the start of its next reference, run-ahead
	// hits included.
	front := s.front[:0]
	for i := 0; i < n; i++ {
		if s.done[i] {
			continue
		}
		j := len(front)
		front = append(front, int32(i))
		for ; j > 0; j-- {
			p := front[j-1]
			// Initial clocks may be mid-run values (a warmup handoff
			// leaves cores at distinct times): same lex order as below.
			if s.clock[p] < s.clock[i] || (s.clock[p] == s.clock[i] && p < int32(i)) {
				break
			}
			front[j], front[j-1] = front[j-1], front[j]
		}
	}
	s.active = front
	for len(s.active) > 0 {
		front := s.active
		c := int(front[0])
		second := math.Inf(1)
		if len(front) > 1 {
			// SyncSlack is 0 outside the sampled fast path, keeping the
			// exact per-reference sync (see Params.SyncSlack).
			second = s.clock[front[1]] + s.p.SyncSlack
		}
		// Step the minimum core until it crosses the runner-up or retires.
		st := &s.live[c]
		t := s.timing[c]
		gen := s.gens[c]
		bt := &s.batches[c]
		l1 := s.l1s[c]
		lg := &s.bufs[c].log
		// Every peer reference now pending starts after this core's clock,
		// so its run-ahead hits from earlier turns are in exact order.
		lg.Commit()
		s.stepper = c
		instr := st.Instructions
		clock := s.clock[c]
		var accesses, allHits uint64
		var ev cachesim.BurstEvent
		var hits, block uint64
		var at float64
		var way int
		var write bool
	stepping:
		for {
			ev, instr, clock, at, hits, block, way, write =
				l1.ReadBurstAt(bt, shift, t.BaseCPI, quota, second, instr, clock)
			accesses += hits
			allHits += hits
			switch ev {
			case cachesim.BurstBatchEnd:
				bt.Refill(gen)
				continue
			case cachesim.BurstQuota:
				break stepping
			case cachesim.BurstUpgrade:
				// Store hit on a line whose inclusive L2 copy is not yet
				// Modified: the kernel already did the L1 hit accounting and
				// recency touch; the write-through upgrade and the marker
				// transition happen here. The L1 line's state mirrors whether
				// the L2 copy is Modified, so only the first store per L1
				// residency comes here and repeat stores skip the L2 probe.
				// The marker is cleared whenever the L2 copy leaves Modified
				// while the L1 copy survives (the M->S downgrade in
				// remoteHit); every other exit from Modified invalidates the
				// L1 line too. The upgrade's latency is 0, so the clock is
				// unchanged.
				s.at = at
				if shared != nil {
					s.sharedWriteThrough(c, block)
					break
				}
				line := l1.Line(l1.SetIndex(block), way)
				s.writeThroughHit(c, block)
				line.State = cachesim.Modified
			case cachesim.BurstMiss:
				// The kernel counted the set-level miss and the reference's
				// instruction-gap clock add; only the descent below the L1
				// remains. It reads s.clock[c] (bus and memory queueing), so
				// the lazy clock is published first.
				accesses++
				s.at = at
				s.clock[c] = clock
				var lat float64
				if shared != nil {
					lat = s.sharedDemand(c, block, write)
				} else {
					lat = s.l2Demand(c, block, write)
				}
				clock += lat * t.Overlap
				s.clock[c] = clock
			}
			if s.lowered {
				// The event settled a peer back to before the runner-up.
				s.lowered = false
				second = s.clock[front[1]]
			}
			// The event reference is now fully committed: apply the same
			// quota-then-frontier checks the per-reference loop ran after it.
			if instr >= quota {
				break
			}
			if clock >= second {
				if ahead {
					var n uint64
					instr, clock, n = l1.ReadAhead(lg, quota, instr, clock)
					accesses += n
					allHits += n
					s.runAhead.hits += n
				}
				break
			}
		}
		// Fold the turn's deferred accounting into CoreStats and publish
		// the lazy clock, once per turn: the register state above is the
		// only live copy between events, so nothing mid-turn reads
		// CoreStats' instruction/L1/cycle fields — and s.clock[c] only
		// before descending into l2Demand (DESIGN.md §11).
		st.Instructions = instr
		st.L1Accesses += accesses
		st.L1Hits += allHits
		st.Cycles = clock
		s.clock[c] = clock
		if instr >= quota {
			s.frozen[c] = *st
			s.done[c] = true
			s.active = front[1:]
			continue
		}
		// Re-insert the stepped core: shift forward every core now lex
		// (clock, index)-before it. Only this core's clock moved, so the
		// rest of the frontier is still sorted.
		j := 0
		for j+1 < len(front) {
			nx := front[j+1]
			cv := s.clock[nx]
			if cv < clock || (cv == clock && int(nx) < c) {
				front[j] = nx
				j++
			} else {
				break
			}
		}
		front[j] = int32(c)
	}
}

// settle prepares core g's L1 for a coherence action on block by the event
// in progress (s.stepper's reference starting at s.at) and returns it. When
// g holds run-ahead hits, rewind undoes those the action must precede. The
// stepping core logs nothing, so settling it is a no-op.
func (s *System) settle(g int, block uint64) *cachesim.Cache {
	if s.bufs[g].log.Len() != 0 {
		s.rewind(g, block)
	}
	return s.l1s[g]
}

// rewind undoes core g's run-ahead hits from the first one that the exact
// order puts after the event in progress and that falls in block's L1
// set, winds the core's cursor, instruction count, clock and L1 counters
// back to before it, and moves g back in the frontier.
func (s *System) rewind(g int, block uint64) {
	undone, instr, clock := s.l1s[g].Rewind(&s.bufs[g].log, block, s.at, g > s.stepper)
	if undone == 0 {
		return
	}
	s.runAhead.rollbacks++
	st := &s.live[g]
	st.Instructions = instr
	st.L1Accesses -= undone
	st.L1Hits -= undone
	st.Cycles = clock
	s.clock[g] = clock
	// Re-sort g: its clock only fell, and it still starts after the event,
	// so it moves towards, but never past, the stepping core at front[0].
	front := s.active
	j := 1
	for int(front[j]) != g {
		j++
	}
	for ; j > 1; j-- {
		p := front[j-1]
		if s.clock[p] < clock || (s.clock[p] == clock && int(p) < g) {
			break
		}
		front[j] = p
	}
	front[j] = int32(g)
	s.lowered = true
}

// exactClock returns core g's clock as exact-order stepping would have left
// it at the event in progress: the start of its first run-ahead hit ordered
// after the event, or its published clock when it has none.
func (s *System) exactClock(g int) float64 {
	if lg := &s.bufs[g].log; lg.Len() > 0 {
		if clock, ok := lg.ClockAfter(s.at, g > s.stepper); ok {
			s.runAhead.logClocks++
			return clock
		}
	}
	return s.clock[g]
}

// writeThroughHit propagates a store that hit the L1 to the inclusive L2:
// the L2 copy is dirtied without touching recency or policy counters, and a
// shared line is upgraded (invalidating remote copies) first.
func (s *System) writeThroughHit(c int, block uint64) {
	l2 := s.l2s[c]
	w, ok := l2.Lookup(block)
	if !ok {
		panic(fmt.Sprintf("cmp: inclusion violated: block %#x in L1[%d] but not its L2", block, c))
	}
	line := l2.Line(l2.SetIndex(block), w)
	if line.State == cachesim.Shared {
		s.invalidateOthers(block, c)
		s.live[c].BusTransfers++
	}
	line.State = cachesim.Modified
	line.Dirty = true
}

// l2Demand handles an L1 miss: local L2, then the snoop bus, then memory.
func (s *System) l2Demand(c int, block uint64, write bool) float64 {
	st := &s.live[c]
	l2 := s.l2s[c]
	set := l2.SetIndex(block)
	st.L2Accesses++
	s.l2Accesses[c]++
	// One probe: the local access and, on a miss, the peers holding the
	// block and its way in the lowest-index one.
	w, hit, holders, hway := s.group.DemandAccess(c, block)
	s.policy.OnL2Access(c, set, hit)
	// Tick runs after the access resolves (it was a defer; hoisted out of
	// the per-access path — nothing below returns early).
	tick := s.l2Accesses[c]

	var lat float64
	switch {
	case hit:
		line := l2.Line(set, w)
		line.Reused = true
		if line.Prefetch {
			line.Prefetch = false
			st.PrefUseful++
		}
		if write {
			if line.State == cachesim.Shared {
				s.invalidateOthers(block, c)
				st.BusTransfers++
			}
			line.State = cachesim.Modified
			line.Dirty = true
		}
		st.L2LocalHits++
		lat = s.p.L2LocalHitCycles
		s.fillL1(c, block)

	default:
		// Local miss: one bus transaction, and the coherence directory
		// has answered "who holds this block" in the probe above.
		qd := s.bus.Request(s.clock[c])
		st.BusTransfers++
		st.QueueDelay += qd
		if holders != 0 {
			lat = s.p.L2RemoteHitCycles + qd
			st.L2RemoteHits++
			s.remoteHit(c, block, set, holders, hway, write)
		} else {
			mqd := s.memPort.Request(s.clock[c])
			st.QueueDelay += mqd
			lat = s.p.MemLatencyCycles + qd + mqd
			st.L2MemFills++
			st.OffChip++
			state := cachesim.Exclusive
			if write {
				state = cachesim.Modified
			}
			s.insertAndEvict(c, block, cachesim.Line{State: state, Dirty: write, Owner: int16(c)})
			s.fillL1(c, block)
		}
	}
	st.LatencySum += lat
	s.trainPrefetcher(c, block)
	s.policy.Tick(c, tick)
	return lat
}

// remoteHit resolves a demand miss that found the line in one or more peer
// LLCs (holders is the peer bitmask from the demand probe, never zero, and
// rw the line's way in the lowest-index holder). See
// DESIGN.md §2 for the protocol choices: spilled lines are served in place
// (repeated 25-cycle remote hits, as in DSR); ASCC-family policies migrate
// last copies home and swap a last-copy victim into the freed slot (§3.2);
// genuinely shared lines replicate as in plain MESI.
func (s *System) remoteHit(c int, block uint64, set int, holders uint64, rw int, write bool) {
	st := &s.live[c]
	r := bits.TrailingZeros64(holders)
	l2r := s.l2s[r]
	if rw < 0 {
		panic("cmp: holder lost the line")
	}
	rl := *l2r.Line(set, rw)
	lastCopy := holders&(holders-1) == 0

	if rl.Spilled {
		s.live[rl.Owner].SpillHits++
	}

	if write {
		// Take ownership: every remote copy is invalidated and the data
		// moves here. Dirty data travels with the line — no memory write.
		for m := holders; m != 0; m &= m - 1 {
			h := bits.TrailingZeros64(m)
			s.l2s[h].Invalidate(block)
			s.settle(h, block).Invalidate(block)
			st.BusTransfers++
		}
		proto := cachesim.Line{State: cachesim.Modified, Dirty: true, Reused: true, Owner: int16(c)}
		if !(lastCopy && s.allocWithSwap(c, block, r, rw, proto)) {
			s.insertAndEvict(c, block, proto)
		}
		s.fillL1(c, block)
		return
	}

	if s.policy.SwapEnabled() && lastCopy {
		// ASCC §3.2: migrate the last copy home; if the local victim is
		// itself a last copy, swap it into the slot freed in the remote
		// cache to keep both lines on chip.
		s.settle(r, block).Invalidate(block)
		l2r.Invalidate(block)
		state := cachesim.Exclusive
		if rl.Dirty {
			state = cachesim.Modified
		}
		proto := cachesim.Line{State: state, Dirty: rl.Dirty, Reused: true, Owner: rl.Owner}
		if !s.allocWithSwap(c, block, r, rw, proto) {
			s.insertAndEvict(c, block, proto)
		}
		s.fillL1(c, block)
		st.BusTransfers++
		return
	}

	if rl.Spilled {
		// Serve in place: the guest line stays where it was spilled and is
		// refreshed in its host set's recency stack.
		l2r.Touch(set, rw)
		l2r.Line(set, rw).Reused = true
		st.BusTransfers++
		return
	}

	// Plain MESI read sharing: downgrade the owner, replicate locally.
	if rl.State == cachesim.Modified {
		// M -> S requires the dirty data to reach memory.
		mqd := s.memPort.Request(s.clock[c])
		st.QueueDelay += mqd
		s.live[r].Writebacks++
		s.live[r].OffChip++
		l2r.Line(set, rw).Dirty = false
		// The owner's L1 copy (if any) carried the Modified marker; the L2
		// copy is Shared from here on, so the next store must re-upgrade.
		l1r := s.settle(r, block)
		if lw, ok := l1r.Lookup(block); ok {
			l1r.Line(l1r.SetIndex(block), lw).State = cachesim.Exclusive
		}
	}
	l2r.Line(set, rw).State = cachesim.Shared
	st.BusTransfers++
	s.insertAndEvict(c, block, cachesim.Line{State: cachesim.Shared, Owner: int16(c)})
	s.fillL1(c, block)
}

// allocWithSwap implements the §3.2 swap: if the policy has swapping
// enabled and the victim the local fill would evict is a valid last copy,
// the victim is placed into the way just freed in the remote cache (way rw
// of cache r) and the requested line takes its place locally. Returns false
// when the swap conditions do not hold (the caller falls back to a normal
// fill).
func (s *System) allocWithSwap(c int, block uint64, r, rw int, proto cachesim.Line) bool {
	if !s.policy.SwapEnabled() {
		return false
	}
	l2 := s.l2s[c]
	set := l2.SetIndex(block)
	if allow := s.policy.DemandVictimAllow(c, set); allow != nil {
		return false // region-partitioned policies do not swap
	}
	vw := l2.VictimInSet(set)
	victim := *l2.Line(set, vw)
	if !victim.Valid() || !s.isLastCopy(victim.Tag, c) {
		return false
	}
	// The remote way must still be free (Invalidate left it invalid).
	ev := l2.InsertWay(block, vw, s.policy.InsertPos(c, set), proto)
	if ev.Tag != victim.Tag {
		panic("cmp: swap victim changed underfoot")
	}
	s.l1s[c].Invalidate(victim.Tag)
	victim.Spilled = true
	victim.Reused = false
	s.l2s[r].InsertWay(victim.Tag, rw, cachesim.InsertLRU, victim)
	s.live[c].Swaps++
	s.live[c].BusTransfers++
	return true
}

// insertAndEvict performs a fill into cache c, honouring the policy's
// insertion position and victim-region restriction, and sends the evicted
// line down the eviction path (which may spill it).
func (s *System) insertAndEvict(c int, block uint64, proto cachesim.Line) {
	l2 := s.l2s[c]
	set := l2.SetIndex(block)
	pos := s.policy.InsertPos(c, set)
	var ev cachesim.Line
	if allow := s.policy.DemandVictimAllow(c, set); allow != nil {
		w := l2.VictimAmong(set, allow)
		if w < 0 {
			w = l2.VictimInSet(set)
		}
		ev = l2.InsertWay(block, w, pos, proto)
	} else {
		ev = l2.Insert(block, pos, proto)
	}
	s.handleEviction(c, set, ev, true)
}

// handleEviction routes an evicted line: back-invalidate the L1 (inclusion),
// drop it silently if a peer still holds a copy, spill it if the policy
// wants to (demand evictions only — spills do not cascade), else write it
// back to memory when dirty.
func (s *System) handleEviction(c, set int, ev cachesim.Line, allowSpill bool) {
	if !ev.Valid() {
		return
	}
	s.settle(c, ev.Tag).Invalidate(ev.Tag)
	if !s.isLastCopy(ev.Tag, c) {
		return
	}
	st := &s.live[c]
	if allowSpill && !ev.Prefetch &&
		(!ev.Spilled || s.policy.AllowRespill()) &&
		s.policy.Role(c, set) == ssl.Spiller {
		if !ev.Reused && !ev.Spilled && s.policy.SpillRequiresReuse() {
			// The victim showed no locality: not worth a peer's way. The
			// set still has a capacity problem, so take the §3.2 path.
			s.policy.OnSpillFail(c, set)
		} else {
			for _, r := range s.policy.Receivers(c, set) {
				if r != c && s.spillInto(c, r, set, ev) {
					return
				}
			}
			s.policy.OnSpillFail(c, set)
		}
	}
	if ev.Dirty {
		// c is a spill receiver when the eviction is a spill's victim: the
		// writeback is charged at its clock, as exact stepping left it.
		mqd := s.memPort.Request(s.exactClock(c))
		st.QueueDelay += mqd
		st.Writebacks++
		st.OffChip++
	}
}

// spillInto places a last-copy victim from cache c into the same-index set
// of cache r. The receiver's own victim goes straight to memory (no spill
// cascades). Returns false when the receiver has no eligible way (a dead-
// line receiver whose lines are all live, or a full ECC shared region).
func (s *System) spillInto(c, r, set int, ev cachesim.Line) bool {
	l2r := s.l2s[r]
	pos := s.policy.SpillInsertPos(r, set, ev.Reused)
	proto := ev
	proto.Spilled = true
	proto.Prefetch = false
	proto.Reused = false
	var ev2 cachesim.Line
	switch s.policy.GuestVictim() {
	case coop.GuestDeadLines:
		w, ok := l2r.VictimDead(set)
		if !ok {
			return false
		}
		ev2 = l2r.InsertWay(ev.Tag, w, pos, proto)
	case coop.GuestRegion:
		allow := s.policy.SpillVictimAllow(r, set)
		w := l2r.VictimAmong(set, allow)
		if w < 0 {
			return false
		}
		ev2 = l2r.InsertWay(ev.Tag, w, pos, proto)
	default:
		ev2 = l2r.Insert(ev.Tag, pos, proto)
	}
	s.handleEviction(r, set, ev2, false)
	s.bus.Request(s.clock[c])
	s.live[c].SpillsOut++
	s.live[c].BusTransfers++
	s.live[r].SpillsIn++
	return true
}

// fillL1 installs a block in core c's L1 (evictions are clean: the L1 is
// write-through). Every caller sits on the demand path of an L1 miss for
// this very block, and nothing between the miss and the fill can add it to
// core c's L1 — peers only ever invalidate — so the fill inserts without a
// presence probe.
func (s *System) fillL1(c int, block uint64) {
	s.l1s[c].Insert(block, cachesim.InsertMRU, cachesim.Line{State: cachesim.Exclusive, Owner: int16(c)})
}

// trainPrefetcher feeds the demand stream to core c's stride prefetcher and
// performs the proposed fetches (skipping blocks already on chip).
func (s *System) trainPrefetcher(c int, block uint64) {
	if s.pf == nil {
		return
	}
	st := &s.live[c]
	for _, pb := range s.pf[c].Observe(block) {
		if _, ok := s.l2s[c].Lookup(pb); ok {
			continue
		}
		if s.holderMask(pb, c) != 0 {
			continue // already on chip in a peer cache
		}
		s.bus.Request(s.clock[c])
		s.memPort.Request(s.clock[c])
		st.PrefIssued++
		st.OffChip++
		st.BusTransfers++
		s.insertAndEvict(c, pb, cachesim.Line{State: cachesim.Exclusive, Prefetch: true, Owner: int16(c)})
	}
}

// invalidateOthers removes block from every L1 and L2 except core c's (the
// write-upgrade path of MESI). One holder-mask probe locates the L2 holders;
// inclusion guarantees a core whose L2 lacks the block has no L1 copy
// either, so only actual holders run invalidations.
func (s *System) invalidateOthers(block uint64, c int) {
	for m := s.group.InvalidateOthers(block, c); m != 0; m &= m - 1 {
		h := bits.TrailingZeros64(m)
		s.settle(h, block).Invalidate(block)
	}
}

// holderMask returns the bitmask of peer caches holding block, excluding
// cache c — one holder-mask probe in place of a per-peer snoop loop.
func (s *System) holderMask(block uint64, c int) uint64 {
	return s.group.HolderMask(block) &^ (1 << uint(c))
}

// isLastCopy reports whether no cache other than exclude holds block.
func (s *System) isLastCopy(block uint64, exclude int) bool {
	return s.group.LastCopy(block, exclude)
}

// sharedWriteThrough is the shared machine's upgrade: an L1 store hit
// dirties the shared LLC copy and invalidates every peer L1 copy. The L1
// line never takes the Modified marker here — a peer's read hit in the
// shared LLC downgrades nothing, so no event would clear it — and every
// store hit therefore writes through.
func (s *System) sharedWriteThrough(c int, block uint64) {
	w, ok := s.shared.Lookup(block)
	if !ok {
		panic(fmt.Sprintf("cmp: inclusion violated: block %#x in L1[%d] but not the shared L2", block, c))
	}
	s.invalidatePeerL1s(block, c)
	line := s.shared.Line(s.shared.SetIndex(block), w)
	line.Dirty = true
	line.State = cachesim.Modified
}

// sharedDemand is the shared machine's L1 miss: the shared LLC at the
// banked hit latency, else memory. All caches below the L1 are write-back
// here (§6.1), and a shared-LLC eviction back-invalidates every L1.
func (s *System) sharedDemand(c int, block uint64, write bool) float64 {
	st := &s.live[c]
	st.L2Accesses++
	w, hit := s.shared.Access(block)
	var lat float64
	if hit {
		if write {
			s.invalidatePeerL1s(block, c)
			line := s.shared.Line(s.shared.SetIndex(block), w)
			line.Dirty = true
			line.State = cachesim.Modified
		}
		st.L2LocalHits++
		lat = s.p.L2LocalHitCycles
	} else {
		mqd := s.memPort.Request(s.clock[c])
		st.QueueDelay += mqd
		lat = s.p.MemLatencyCycles + mqd
		st.L2MemFills++
		st.OffChip++
		state := cachesim.Exclusive
		if write {
			state = cachesim.Modified
			s.invalidatePeerL1s(block, c)
		}
		ev := s.shared.Insert(block, cachesim.InsertMRU, cachesim.Line{State: state, Dirty: write, Owner: int16(c)})
		if ev.Valid() {
			for i := range s.l1s {
				s.settle(i, ev.Tag).Invalidate(ev.Tag)
			}
			if ev.Dirty {
				st.QueueDelay += s.memPort.Request(s.clock[c])
				st.Writebacks++
				st.OffChip++
			}
		}
	}
	s.fillL1(c, block)
	st.LatencySum += lat
	return lat
}

// invalidatePeerL1s drops block from every L1 but core c's.
func (s *System) invalidatePeerL1s(block uint64, c int) {
	for i := range s.l1s {
		if i != c {
			s.settle(i, block).Invalidate(block)
		}
	}
}
