package ascc_test

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"ascc"
)

// TestSteadyStateRunAllocations pins the simulator's allocation behaviour:
// once a System is built, driving it allocates only the Results value each
// Run returns (a header plus the per-core stats slice). The reference
// batching, the run-to-event kernel and its per-miss descent, the frontier
// scratch, the probe paths, policy counters and
// eviction handling must all be allocation-free — a regression here
// silently costs double-digit percent throughput, so the budget is
// enforced, not just benchmarked.
func TestSteadyStateRunAllocations(t *testing.T) {
	cfg := ascc.DefaultConfig()
	runner := ascc.NewRunner(cfg)
	sys, err := runner.Build(ascc.Spec{Mix: []int{445, 444, 456, 471}, Policy: ascc.AVGCC})
	if err != nil {
		t.Fatal(err)
	}
	// One untimed run warms every lazily initialised path (zipf tables,
	// policy state) so the measurement sees the steady state the end-to-end
	// benchmark reports.
	sys.Run(1_000, 20_000)

	allocs := testing.AllocsPerRun(5, func() {
		sys.Run(1_000, 20_000)
	})
	// Budget 8: Results currently costs 2 allocations per Run and the rest
	// of the engine none; 8 leaves room for small accounting changes while
	// still catching any per-reference or per-batch allocation creeping in.
	if allocs > 8 {
		t.Errorf("System.Run allocates %.0f times per run, budget is 8", allocs)
	}
}

// TestReplaySteadyStateAllocations pins the arena replay path to the same
// budget. The first System's runs populate the runner's packed trace
// arenas; a second System over the same mix then replays an already-frozen
// prefix, so its Run must be a pure decode loop — no chunk growth, no
// per-batch or per-reference allocation.
func TestReplaySteadyStateAllocations(t *testing.T) {
	cfg := ascc.DefaultConfig()
	if !cfg.TraceCache {
		t.Fatal("trace cache is off by default; replay path untested")
	}
	runner := ascc.NewRunner(cfg)
	warm, err := runner.Build(ascc.Spec{Mix: []int{445, 444, 456, 471}, Policy: ascc.AVGCC})
	if err != nil {
		t.Fatal(err)
	}
	warm.Run(1_000, 150_000) // extend the arenas well past the measured window

	sys, err := runner.Build(ascc.Spec{Mix: []int{445, 444, 456, 471}, Policy: ascc.AVGCC})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(1_000, 20_000)

	allocs := testing.AllocsPerRun(5, func() {
		sys.Run(1_000, 20_000)
	})
	if allocs > 8 {
		t.Errorf("replaying System.Run allocates %.0f times per run, budget is 8", allocs)
	}
}

// TestStoreReplaySteadyStateAllocations pins the persistent-store replay
// path to the same budget. One runner synthesises the mix streams and
// flushes them to a store directory; a second runner (a "new process")
// adopts the mmap'd chunk files directly as its arena chunk tables, so a
// steady-state Run over the frozen prefix must cost no more than in-memory
// replay — the mmap tier is free once adopted, not cheaper-but-allocating.
func TestStoreReplaySteadyStateAllocations(t *testing.T) {
	cfg := ascc.DefaultConfig()
	cfg.ArenaStoreDir = t.TempDir()
	mix := []int{445, 444, 456, 471}

	warmRunner := ascc.NewRunner(cfg)
	warm, err := warmRunner.Build(ascc.Spec{Mix: mix, Policy: ascc.AVGCC})
	if err != nil {
		t.Fatal(err)
	}
	warm.Run(1_000, 150_000) // extend the arenas well past the measured window
	if err := warmRunner.FlushArenas(); err != nil {
		t.Fatal(err)
	}

	sys, err := ascc.NewRunner(cfg).Build(ascc.Spec{Mix: mix, Policy: ascc.AVGCC})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(1_000, 20_000)

	allocs := testing.AllocsPerRun(5, func() {
		sys.Run(1_000, 20_000)
	})
	if allocs > 8 {
		t.Errorf("store-replaying System.Run allocates %.0f times per run, budget is 8", allocs)
	}
}

// TestSampledReplaySteadyStateAllocations pins the set-sampled fast path
// (DESIGN.md §16) to the same budget. The warm run filters the packed full
// streams into cached sampled sub-arenas; a second System over the same mix
// then replays the compact streams' frozen prefix, so its Run must be the
// same pure decode loop as full-fidelity replay — the set-index translation
// wrapper and the in-place batched-event remap must not allocate.
func TestSampledReplaySteadyStateAllocations(t *testing.T) {
	cfg := ascc.DefaultConfig()
	cfg.SampleDen = 8
	runner := ascc.NewRunner(cfg)
	warm, err := runner.Build(ascc.Spec{Mix: []int{445, 444, 456, 471}, Policy: ascc.AVGCC})
	if err != nil {
		t.Fatal(err)
	}
	warm.Run(1_000, 150_000) // extend the sampled sub-arenas past the window

	sys, err := runner.Build(ascc.Spec{Mix: []int{445, 444, 456, 471}, Policy: ascc.AVGCC})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(1_000, 20_000)

	allocs := testing.AllocsPerRun(5, func() {
		sys.Run(1_000, 20_000)
	})
	if allocs > 8 {
		t.Errorf("sampled System.Run allocates %.0f times per run, budget is 8", allocs)
	}
}

// TestSampledStoreReplaySteadyStateAllocations pins the sampled replay over
// the persistent store tier: the filtered sub-arena is an ordinary arena to
// the store, so a second runner adopting the flushed chunk files must replay
// the compact stream at the in-memory budget too.
func TestSampledStoreReplaySteadyStateAllocations(t *testing.T) {
	cfg := ascc.DefaultConfig()
	cfg.ArenaStoreDir = t.TempDir()
	cfg.SampleDen = 8
	mix := []int{445, 444, 456, 471}

	warmRunner := ascc.NewRunner(cfg)
	warm, err := warmRunner.Build(ascc.Spec{Mix: mix, Policy: ascc.AVGCC})
	if err != nil {
		t.Fatal(err)
	}
	warm.Run(1_000, 150_000)
	if err := warmRunner.FlushArenas(); err != nil {
		t.Fatal(err)
	}

	sys, err := ascc.NewRunner(cfg).Build(ascc.Spec{Mix: mix, Policy: ascc.AVGCC})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(1_000, 20_000)

	allocs := testing.AllocsPerRun(5, func() {
		sys.Run(1_000, 20_000)
	})
	if allocs > 8 {
		t.Errorf("sampled store-replaying System.Run allocates %.0f times per run, budget is 8", allocs)
	}
}

// TestRecycledBuildAllocations pins the recycling of finished systems'
// cache storage. A memoised Runner.Run releases its system, so building
// the same spec again takes the released L1/L2 line and metadata slabs and
// directory table back (cleared) instead of allocating ~0.9 MiB of fresh
// ones; the rebuild must stay under 64 KiB of allocation, and a system
// built on the recycled storage must produce exactly the results of the
// original run and of a fresh runner's. A released system must refuse to
// run rather than simulate over storage another system now owns.
//
// The free lists are process-wide, so the rebuild takes the slabs back
// whichever P the goroutine runs on. A collection empties them, as it is
// meant to, so none may run between the release and the rebuild: the test
// switches the collector off for its duration.
func TestRecycledBuildAllocations(t *testing.T) {
	cfg := ascc.DefaultConfig()
	cfg.WarmupInstr, cfg.MeasureInstr = 20_000, 100_000
	cfg.Parallel = 1
	spec := ascc.Spec{Mix: []int{445, 444, 456, 471}, Policy: ascc.AVGCC}

	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runner := ascc.NewRunner(cfg)
	first, err := runner.Run(spec)
	if err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sys, err := runner.Build(spec)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("rebuilding a released spec allocated %d bytes (%d objects), budget is 64 KiB",
			got, after.Mallocs-before.Mallocs)
	}
	recycled := sys.ScaleSampled(sys.Run(cfg.WarmupInstr, cfg.MeasureInstr))
	if !reflect.DeepEqual(recycled, first) {
		t.Errorf("system on recycled storage: %+v\nwant the original run's %+v", recycled, first)
	}
	fresh, err := ascc.NewRunner(cfg).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, first) {
		t.Errorf("fresh runner: %+v\nwant the recycled runner's %+v", fresh, first)
	}

	sys.Release()
	defer func() {
		if recover() == nil {
			t.Error("Run on a released System did not panic")
		}
	}()
	sys.Run(cfg.WarmupInstr, cfg.MeasureInstr)
}

// TestWidenedBuildAllocations pins the recycling of cache storage across
// machine widths, the scaleout sweep's order. A memoised 32-core run
// releases ~5 MiB of cache storage, 2.25 MiB of it the directory table's
// 36 segments; the 64-core machine needs ~10 MiB, 4.5 MiB of it its
// table's 72 segments. Building the 64-core spec next must take all of the
// released storage back and allocate only the rest (~5.5 MiB with the
// build's other allocations): the budget is 6 MiB, which the build exceeds
// if it allocates the released 2.25 MiB of directory segments or 2 MiB of
// L2 line slabs afresh. The system built partly on recycled storage must
// produce exactly a fresh runner's results. As in
// TestRecycledBuildAllocations, no collection may run between the release
// and the build.
func TestWidenedBuildAllocations(t *testing.T) {
	cfg := ascc.DefaultConfig()
	cfg.WarmupInstr, cfg.MeasureInstr = 5_000, 20_000
	cfg.Parallel = 1
	mix := ascc.FourAppMixes()[0]
	narrow := ascc.Spec{Mix: ascc.ExtendMix(mix, 32), Policy: ascc.AVGCC}
	wide := ascc.Spec{Mix: ascc.ExtendMix(mix, 64), Policy: ascc.AVGCC}

	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runner := ascc.NewRunner(cfg)
	if _, err := runner.Run(narrow); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sys, err := runner.Build(wide)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 6<<20 {
		t.Errorf("building the 64-core spec after a 32-core run allocated %d bytes, budget is 6 MiB", got)
	}
	widened := sys.ScaleSampled(sys.Run(cfg.WarmupInstr, cfg.MeasureInstr))
	sys.Release()
	fresh, err := ascc.NewRunner(cfg).Run(wide)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(widened, fresh) {
		t.Errorf("64-core system on recycled storage: %+v\nwant a fresh runner's %+v", widened, fresh)
	}
}
