package cmp

import (
	"sync"
	"testing"

	"ascc/internal/policies"
	"ascc/internal/trace"
	"ascc/internal/workload"
)

// benchArenas memoises the packed reference streams across benchmark
// iterations and across the two A/B sides, mirroring the harness trace
// cache: the real BenchmarkSimulatorThroughput machine steps allocation-free
// replayers, not live generators, so the phase A/B should too.
var benchArenas struct {
	once   sync.Once
	arenas []*trace.Arena
}

// newBenchSystem builds the 4-core AVGCC mix machine that
// BenchmarkSimulatorThroughput measures end-to-end, constructed directly
// (the harness imports cmp, so cmp benchmarks cannot import the harness).
// Geometry, timing, trace replay and the AVGCC resize period mirror harness
// defaults at scale 8.
func newBenchSystem(b *testing.B) *System {
	b.Helper()
	gens, profs, err := workload.BuildMix([]int{445, 444, 456, 471}, 1, 8)
	if err != nil {
		b.Fatal(err)
	}
	benchArenas.once.Do(func() {
		benchArenas.arenas = make([]*trace.Arena, len(gens))
		for i, g := range gens {
			benchArenas.arenas[i] = trace.NewArena(g)
			// Pre-generate well past what benchInstr consumes: otherwise the
			// lazy extension lands in the first declared benchmark's timed
			// region and biases every A/B pair against it.
			benchArenas.arenas[i].Extend(1_000_000)
		}
	})
	for i := range gens {
		gens[i] = benchArenas.arenas[i].NewReplayer()
	}
	tim := make([]CoreTiming, len(profs))
	for i, pr := range profs {
		tim[i] = CoreTiming{BaseCPI: pr.BaseCPI, Overlap: pr.Overlap}
	}
	p := DefaultParams(4, 8)
	sets := p.L2.SizeBytes / p.L2.LineBytes / p.L2.Ways
	cfg := policies.AVGCCDefaultConfig(4, sets, p.L2.Ways, 1)
	cfg.ResizePeriod = 100000 / 64
	pol := policies.NewASCCVariant("AVGCC", cfg)
	sys, err := New(p, gens, tim, pol)
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

const benchInstr = 1_000_000

// BenchmarkPhaseBurst drives the engine — the run-to-event burst kernel with
// one descent per L1 miss — for 1M instructions per core on the 4-core
// AVGCC mix. Its per-op time against BenchmarkPhaseRefStep is the in-binary
// A/B for the whole run-to-event rewrite ("burst" block in
// BENCH_kernel.json): both sides run the identical machine, workload and
// accounting, differing only in the stepping.
func BenchmarkPhaseBurst(b *testing.B) {
	total := uint64(0)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys := newBenchSystem(b)
		b.StartTimer()
		res := sys.Run(0, benchInstr)
		for _, c := range res.Cores {
			total += c.Instructions
		}
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "instr/s")
}

// BenchmarkPhaseRefStep is the frozen pre-burst per-reference stepping
// loop (refstep_test.go) over the same machine — the A side of the burst
// A/B comparison.
func BenchmarkPhaseRefStep(b *testing.B) {
	total := uint64(0)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys := newBenchSystem(b)
		b.StartTimer()
		res := sys.refRun(0, benchInstr)
		for _, c := range res.Cores {
			total += c.Instructions
		}
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "instr/s")
}
