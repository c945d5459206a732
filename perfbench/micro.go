package main

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"ascc/internal/cachesim"
	"ascc/internal/cmp"
	"ascc/internal/harness"
	"ascc/internal/mem"
	"ascc/internal/trace"
	"ascc/internal/trace/store"
	"ascc/internal/workload"
)

// Microbenchmark sizes: references recorded per stream, and the minimum
// time and repetitions each measurement takes its median over.
const (
	microRefs     = 1 << 17
	microDirRefs  = 4096 // per core
	microMinTime  = 200 * time.Millisecond
	microMinReps  = 5
	microStoreMin = 3
)

// sink keeps microbenchmark results observable so the compiler cannot drop
// the measured calls.
var sink uint64

// repeat runs f until both microMinTime has passed and minReps
// repetitions ran, and returns the median nanoseconds per operation. f
// returns the operations it performed and the time they took.
func repeat(minReps int, f func() (int, time.Duration)) float64 {
	var per []float64
	start := time.Now()
	for len(per) < minReps || time.Since(start) < microMinTime {
		n, d := f()
		per = append(per, float64(d.Nanoseconds())/float64(n))
	}
	return median(per)
}

// timed adapts an operation count function to repeat, timing all of it.
func timed(f func() int) func() (int, time.Duration) {
	return func() (int, time.Duration) {
		t := time.Now()
		n := f()
		return n, time.Since(t)
	}
}

// microbench runs the per-layer microbenchmarks on inputs recorded from
// this workload: the first simulation's core-0 stream (kernel, replay and
// the memory port, fed with that stream's L1 miss times), the workload's
// arena store, the policy hook sequence recorded in the traced run, and the
// scaleout mix's 4- and 64-core streams for the directory.
func microbench(w *benchWorkload, seed uint64, pin *workloadPin, dir string, cfg harness.Config, cache *trace.ArenaCache, sims []sim, hookSim string, hooks []hookEvent) (map[string]metric, error) {
	m := map[string]metric{}
	s := sims[0]
	gens, timing, err := s.generators()
	if err != nil {
		return nil, err
	}
	p := s.cfg.Params(s.cores())
	spec, err := p.SampleSpec()
	if err != nil {
		return nil, err
	}
	key := streamKey(s.kind, 0, gens[0].Name(), s.cfg)
	a := cache.Get(key, gens[0])
	l1 := p.L1
	if spec != nil {
		a = cache.Get(sampledKey(key, spec), spec.View(a.NewReplayer()))
		if l1, err = cachesim.SampledConfig(p.L1, p.SampleDen); err != nil {
			return nil, err
		}
	}
	n := a.Refs()
	if n > microRefs {
		n = microRefs
	}
	refs := make([]trace.Ref, n)
	a.NewReplayer().NextBatch(refs)

	// Kernel: the L1 burst kernel over the recorded stream, filling on
	// every miss as the engine does; the warm pass records miss times.
	shift := uint(bits.TrailingZeros(uint(l1.LineBytes)))
	c := cachesim.New(l1)
	var missAt []float64
	burst := func(record bool) int {
		bt := trace.Batch{Refs: refs}
		var instr uint64
		var clock float64
		for {
			ev, in, ck, _, block, _, _ := c.ReadBurst(&bt, shift, timing[0].BaseCPI, math.MaxUint64, math.Inf(1), instr, clock)
			instr, clock = in, ck
			switch ev {
			case cachesim.BurstMiss:
				c.Insert(block, cachesim.InsertMRU, cachesim.Line{State: cachesim.Exclusive})
				if record {
					missAt = append(missAt, clock)
				}
			case cachesim.BurstBatchEnd:
				sink += instr
				return len(refs)
			}
		}
	}
	burst(true)
	m["cachesim.burst_ns_per_ref"] = metric{repeat(microMinReps, timed(func() int { return burst(false) })), "ns"}

	// Memory port: one request per recorded L1 miss, at its time.
	if len(missAt) == 0 {
		return nil, fmt.Errorf("microbench: recorded stream has no L1 misses")
	}
	port := mem.Port{Occupancy: p.MemOccupancy}
	m["mem.port_ns_per_request"] = metric{repeat(microMinReps, timed(func() int {
		port.Reset()
		var q float64
		for _, t := range missAt {
			q += port.Request(t)
		}
		sink += uint64(q)
		return len(missAt)
	})), "ns"}

	// Replay: straight decode of the recorded arena prefix.
	buf := make([]trace.Ref, 64)
	m["trace.replay_ns_per_ref"] = metric{repeat(microMinReps, timed(func() int {
		rp := a.NewReplayer()
		k := 0
		for ; k+len(buf) <= len(refs); k += len(buf) {
			rp.NextBatch(buf)
		}
		sink += buf[0].Addr
		return k
	})), "ns"}

	// Directory: holder-mask queries at 4 and 64 cores.
	for _, cores := range []int{4, 64} {
		ns, err := dirProbe(cfg.Seed, cfg.Scale, cores)
		if err != nil {
			return nil, err
		}
		m[fmt.Sprintf("cachesim.dir_probe_ns_%dc", cores)] = metric{ns, "ns"}
	}

	// Store: load and validate every arena the workload persisted.
	loadRate, err := storeLoad(w, seed, pin, dir)
	if err != nil {
		return nil, err
	}
	m["store.load_mrefs_per_s"] = metric{loadRate, "Mref/s"}

	// Policy hooks: the recorded sequence into a fresh policy each time.
	var hs sim
	for _, x := range sims {
		if x.name == hookSim {
			hs = x
		}
	}
	if len(hooks) == 0 {
		return nil, fmt.Errorf("microbench: no policy hooks recorded for %q", hookSim)
	}
	sets, ways := hs.cfg.L2Geometry()
	var newErr error
	m["policies.hook_ns_per_call"] = metric{repeat(microMinReps, func() (int, time.Duration) {
		pol, err := harness.NewPolicy(hs.policy, hs.cores(), sets, ways, hs.cfg.Seed, hs.cfg.ResizePeriod())
		if err != nil {
			newErr = err
			return 1, 0
		}
		t := time.Now()
		replayHooks(pol, hooks)
		return len(hooks), time.Since(t)
	}), "ns"}
	if newErr != nil {
		return nil, newErr
	}
	return m, nil
}

// dirProbe measures HolderMask on a directory-backed group of cores L2s,
// populated by the demand accesses of the scaleout mix's streams at that
// width and probed with the same blocks.
func dirProbe(seed uint64, scale, cores int) (float64, error) {
	gens, _, err := workload.BuildMix(workload.ExtendMix(workload.FourAppMixes()[0], cores), seed, scale)
	if err != nil {
		return 0, err
	}
	l2 := cmp.DefaultParams(cores, scale).L2
	shift := uint(bits.TrailingZeros(uint(l2.LineBytes)))
	g := cachesim.NewGroup(cores, l2)
	g.EnableDirectory()
	refs := make([]trace.Ref, microDirRefs)
	blocks := make([]uint64, 0, cores*microDirRefs)
	for c, gen := range gens {
		gen.NextBatch(refs)
		for _, r := range refs {
			b := r.Addr >> shift
			if _, hit, _, _ := g.DemandAccess(c, b); !hit {
				g.Cache(c).Insert(b, cachesim.InsertMRU, cachesim.Line{State: cachesim.Shared, Owner: int16(c)})
			}
			blocks = append(blocks, b)
		}
	}
	// Interleave the cores' blocks so consecutive probes hit different
	// members, as the engine's interleaved turns do.
	probe := make([]uint64, 0, len(blocks))
	for i := 0; i < microDirRefs; i++ {
		for c := 0; c < cores; c++ {
			probe = append(probe, blocks[c*microDirRefs+i])
		}
	}
	return repeat(microMinReps, timed(func() int {
		var x uint64
		for _, b := range probe {
			x += g.HolderMask(b)
		}
		sink += x
		return len(probe)
	})), nil
}

// storeLoad loads and validates every arena of the run's store through a
// fresh store instance, returning references per second in millions.
func storeLoad(w *benchWorkload, seed uint64, pin *workloadPin, dir string) (float64, error) {
	streams, err := planStreams(w, seed, pin)
	if err != nil {
		return 0, err
	}
	var keys []string
	for _, s := range streams {
		keys = append(keys, s.key)
		if s.sneed > 0 {
			keys = append(keys, sampledKey(s.key, s.spec))
		}
	}
	var missing string
	ns := repeat(microStoreMin, timed(func() int {
		s := store.New(dir)
		defer s.Close()
		var refs uint64
		for _, k := range keys {
			a := s.Load(k, nopGen{})
			if a == nil {
				missing = k
				continue
			}
			refs += a.Refs()
		}
		return int(refs)
	}))
	if missing != "" {
		return 0, fmt.Errorf("microbench: store has no arena %s", missing)
	}
	return 1e3 / ns, nil
}

// nopGen stands in for the live generator behind a loaded arena; the
// store microbenchmark never replays past the persisted prefix.
type nopGen struct{}

func (nopGen) Name() string { return "perfbench-load" }
func (nopGen) Next() trace.Ref {
	panic("perfbench: store microbenchmark replayed past the stored prefix")
}
func (nopGen) NextBatch(buf []trace.Ref) {
	panic("perfbench: store microbenchmark replayed past the stored prefix")
}
