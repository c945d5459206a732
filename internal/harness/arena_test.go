package harness

import (
	"testing"
)

// arenaConfig is tinyConfig with the budgets trimmed further: the arena
// tests assert sharing structure, not simulation fidelity.
func arenaConfig() Config {
	cfg := tinyConfig()
	cfg.WarmupInstr = 40_000
	cfg.MeasureInstr = 100_000
	return cfg
}

// TestArenaSharedAcrossPoliciesAndMixes pins the tentpole sharing claims:
// one generation pass per (benchmark, core) stream feeds every policy run
// of a mix, the single-app baselines of AloneCPI, and other mixes placing
// the same benchmark at the same core.
func TestArenaSharedAcrossPoliciesAndMixes(t *testing.T) {
	r := NewRunner(arenaConfig())
	if r.arenas == nil {
		t.Fatal("default config did not attach a trace cache")
	}
	mix := []int{445, 456}
	for _, id := range []PolicyID{PBaseline, PDSR, PASCC, PAVGCC} {
		if _, err := r.RunMix(mix, id); err != nil {
			t.Fatal(err)
		}
	}
	// 4 policies over a 2-core mix: exactly one arena per core stream.
	if got := r.arenas.Len(); got != 2 {
		t.Fatalf("%d arenas after 4 policy runs of one mix, want 2", got)
	}
	// The single-app "alone" run of 445 is the mix stream for core 0.
	if _, err := r.AloneCPI(445); err != nil {
		t.Fatal(err)
	}
	if got := r.arenas.Len(); got != 2 {
		t.Fatalf("%d arenas after AloneCPI(445), want 2 (stream shared)", got)
	}
	// A different mix reusing 445 at core 0 shares its arena; 471 at
	// core 1 is a new stream.
	if _, err := r.RunMix([]int{445, 471}, PBaseline); err != nil {
		t.Fatal(err)
	}
	if got := r.arenas.Len(); got != 3 {
		t.Fatalf("%d arenas after second mix, want 3", got)
	}
	// The same benchmark at a different core is a different stream (its
	// seed and address base derive from the core index).
	if _, err := r.RunMix([]int{456, 445}, PBaseline); err != nil {
		t.Fatal(err)
	}
	if got := r.arenas.Len(); got != 5 {
		t.Fatalf("%d arenas after swapped mix, want 5", got)
	}
}

// TestArenaReplayBitIdentical compares full simulation results with the
// trace cache on and off for a representative mix and policy: the replayed
// stream must reproduce every statistic of live generation exactly.
func TestArenaReplayBitIdentical(t *testing.T) {
	mixes := [][]int{{445, 456}, {433, 471, 473, 482}}
	for _, mix := range mixes {
		cfgOn := arenaConfig()
		cfgOff := arenaConfig()
		cfgOff.TraceCache = false
		for _, id := range []PolicyID{PBaseline, PAVGCC} {
			on, err := NewRunner(cfgOn).RunMix(mix, id)
			if err != nil {
				t.Fatal(err)
			}
			off, err := NewRunner(cfgOff).RunMix(mix, id)
			if err != nil {
				t.Fatal(err)
			}
			for c := range on.Cores {
				if on.Cores[c] != off.Cores[c] {
					t.Fatalf("mix %v policy %s core %d: replay %+v != live %+v",
						mix, id, c, on.Cores[c], off.Cores[c])
				}
			}
		}
	}
}

// TestArenaSharedAcrossConfigsOnOnePool checks the pool-level cache: two
// runners differing only in machine geometry (an L2-size override) share
// the workload arenas, because streams depend only on (workload, seed,
// scale).
func TestArenaSharedAcrossConfigsOnOnePool(t *testing.T) {
	p := NewPool(1)
	cfgA := arenaConfig().WithPool(p)
	cfgB := cfgA
	cfgB.L2SizeBytes = 512 * 1024
	ra := SharedRunner(cfgA)
	rb := SharedRunner(cfgB)
	if ra == rb {
		t.Fatal("distinct configs resolved to one runner")
	}
	if ra.arenas != rb.arenas {
		t.Fatal("pool-attached runners did not share the arena cache")
	}
	if _, err := ra.RunMix([]int{445, 456}, PBaseline); err != nil {
		t.Fatal(err)
	}
	n := ra.arenas.Len()
	if _, err := rb.RunMix([]int{445, 456}, PBaseline); err != nil {
		t.Fatal(err)
	}
	if got := rb.arenas.Len(); got != n {
		t.Fatalf("L2-size override regenerated streams: %d arenas, want %d", got, n)
	}
}

// TestArenaBudgetUnionAcrossRunners is the regression for the pool budget
// gap: the first runner's TraceCacheMB used to fix the shared cache's
// budget forever, silently capping any later runner that asked for more.
// The pool must reconcile to the most permissive budget, in either
// attachment order.
func TestArenaBudgetUnionAcrossRunners(t *testing.T) {
	mk := func(mbFirst, mbSecond int) int64 {
		p := NewPool(1)
		cfgA := arenaConfig().WithPool(p)
		cfgA.TraceCacheMB = mbFirst
		cfgB := arenaConfig().WithPool(p)
		cfgB.TraceCacheMB = mbSecond
		ra, rb := SharedRunner(cfgA), SharedRunner(cfgB)
		if ra.arenas != rb.arenas {
			t.Fatal("pool-attached runners did not share the arena cache")
		}
		return ra.arenas.MaxBytes()
	}
	const mi = int64(1 << 20)
	if got := mk(1, 512); got != 512*mi {
		t.Fatalf("small-then-large: budget %d, want %d", got, 512*mi)
	}
	if got := mk(512, 1); got != 512*mi {
		t.Fatalf("large-then-small: budget %d, want %d", got, 512*mi)
	}
	// TraceCacheMB = 0 resolves to the default, which participates in the
	// union like any explicit bound.
	if got := mk(1, 0); got != int64(DefaultTraceCacheMB)*mi {
		t.Fatalf("small-then-default: budget %d, want %d", got, int64(DefaultTraceCacheMB)*mi)
	}
}

// TestArenaDisabled pins the opt-out: no cache is attached and runs still
// work on live generation.
func TestArenaDisabled(t *testing.T) {
	cfg := arenaConfig()
	cfg.TraceCache = false
	r := NewRunner(cfg)
	if r.arenas != nil {
		t.Fatal("TraceCache=false still attached a cache")
	}
	if _, err := r.RunMix([]int{445, 456}, PBaseline); err != nil {
		t.Fatal(err)
	}
}

// TestArenaMTStreams checks the multithreaded path: per-thread streams get
// per-thread arenas keyed apart from the mix streams.
func TestArenaMTStreams(t *testing.T) {
	r := NewRunner(arenaConfig())
	if _, err := r.RunMT("ocean", 2, PBaseline); err != nil {
		t.Fatal(err)
	}
	if got := r.arenas.Len(); got != 2 {
		t.Fatalf("%d arenas after 2-thread MT run, want 2", got)
	}
	if _, err := r.RunMT("ocean", 2, PASCC); err != nil {
		t.Fatal(err)
	}
	if got := r.arenas.Len(); got != 2 {
		t.Fatalf("%d arenas after second MT policy, want 2 (shared)", got)
	}
}

// TestArenaSingleRunsShareStream pins KindSingle stream sharing (the Fig. 1
// way sweep replays one stream per benchmark across every geometry point).
func TestArenaSingleRunsShareStream(t *testing.T) {
	r := NewRunner(arenaConfig())
	for _, ways := range []int{2, 4, 8} {
		l2 := r.Cfg.Params(1).L2
		l2.Ways = ways
		if _, err := r.Run(Spec{Kind: KindSingle, Mix: []int{445}, L2: l2, Policy: PBaseline}); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.arenas.Len(); got != 1 {
		t.Fatalf("%d arenas after 3-point way sweep, want 1", got)
	}
}
