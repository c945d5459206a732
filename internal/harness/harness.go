// Package harness wires workloads, the CMP engine and the policies into
// runnable experiments, caches the expensive single-application baseline
// runs that the weighted-speedup metrics normalise against, and renders
// text tables for the per-figure reproductions in internal/experiments.
package harness

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"ascc/internal/cmp"
	"ascc/internal/coop"
	"ascc/internal/policies"
	"ascc/internal/trace"
	"ascc/internal/trace/store"
	"ascc/internal/workload"
)

// Config fixes the experimental conditions shared by every run of a suite.
type Config struct {
	// Scale is the geometry scale divisor (DESIGN.md §5): caches and
	// workload footprints are shrunk together. 8 is the fast default; 1 is
	// the paper's absolute geometry.
	Scale int
	// WarmupInstr instructions are executed per core before measurement.
	WarmupInstr uint64
	// MeasureInstr instructions are measured per core (the paper uses 10
	// billion; the scaled default is a few million).
	MeasureInstr uint64
	// Seed fixes every random sequence in the suite.
	Seed uint64
	// Prefetch enables the per-LLC stride prefetcher (§6.3).
	Prefetch bool
	// L2SizeBytes overrides the LLC size when non-zero, expressed at PAPER
	// scale (it is divided by Scale like everything else). Table 4 and the
	// multithreaded study use it.
	L2SizeBytes int
	// Parallel bounds how many simulations run at once: 0 uses all CPUs
	// (runtime.NumCPU), 1 recovers sequential execution. Results are
	// bit-identical at every setting; only wall-clock changes.
	Parallel int
	// TraceCache memoises each workload's generated reference stream in a
	// packed in-memory arena (trace.Arena, DESIGN.md §10): the stream is
	// synthesised once per (workload, seed, scale) and every subsequent run
	// replays it by straight decode, skipping the component mixing and RNG
	// draws that otherwise dominate steady-state CPU. Results are
	// bit-identical with the cache on or off.
	TraceCache bool
	// TraceCacheMB bounds the resident size of the packed-stream cache in
	// MiB; cold arenas are evicted least-recently-used first when the
	// budget is exceeded. 0 uses DefaultTraceCacheMB. Only meaningful when
	// TraceCache is set.
	TraceCacheMB int
	// ArenaStoreDir, when non-empty, roots the persistent arena store
	// (internal/trace/store, DESIGN.md §14) beneath the packed-stream
	// cache: cache misses memory-map previously persisted streams instead
	// of re-synthesising them, evictions write dirty arenas behind, and
	// Runner/Pool.FlushArenas persists what a batch of runs grew — so
	// arenas survive the process and every later run, sweep or CI job
	// replays instead of regenerates. Empty keeps the cache purely
	// in-memory (the default; DefaultArenaStoreDir returns the
	// conventional root). Only meaningful when TraceCache is set; results
	// are bit-identical with the store on, off, cold or warm. Runners
	// sharing one pool share one store — the first store-carrying
	// configuration fixes the directory.
	ArenaStoreDir string
	// Cores, when non-zero, widens every mix run to that many cores by
	// cyclic replication (workload.ExtendMix): a 4-app mix on Cores=16 runs
	// four independent copies of each application. Zero keeps each mix's
	// natural width. Single-application calibration runs (AloneCPI) are
	// never widened. At most 64 (the holder-mask word).
	Cores int
	// SampleDen, when > 1, runs every simulation on the set-sampled fast
	// path (cmp.Params.SampleDen, DESIGN.md §16): the machine models
	// 1/SampleDen of the L2 sets (a deterministic residue sample that
	// always contains the policies' SDM leader sets), the reference
	// streams are pre-filtered to those sets at the arena layer (the
	// filtered sub-arena is cached and persisted like any other arena),
	// and the results are rescaled to full-run magnitudes
	// (cmp.System.ScaleSampled). Single-core per-set behaviour is exact;
	// multi-core results differ only through cross-core interleave.
	// Ignored (full fidelity) when Prefetch is set — the stride prefetcher
	// crosses set boundaries. Experiments that inspect per-set state
	// (fig1, fig2) or run the shared-LLC machine clear it internally.
	SampleDen int

	// pool, when non-nil, is the worker pool shared by every Runner built
	// from this configuration (set via WithPool / EnsurePool). The zero
	// value gives each Runner a private pool of Parallel slots.
	pool *Pool
}

// WithPool returns a copy of the configuration whose runners share pool p:
// they contend for its worker slots and, through Pool.Runner, share
// memoised simulations across experiments with identical configurations.
func (c Config) WithPool(p *Pool) Config {
	c.pool = p
	return c
}

// EnsurePool returns the configuration carrying a worker pool, attaching a
// fresh one of Parallel slots if none is shared yet.
func (c Config) EnsurePool() Config {
	if c.pool == nil {
		c.pool = NewPool(c.Parallel)
	}
	return c
}

// DefaultTraceCacheMB is the packed-stream cache budget applied when
// Config.TraceCacheMB is zero. At 4 bytes per reference (the codec's short
// record, which every SPEC stream packs into; multithreaded streams
// average ~4.9 bytes and 1/8 sampled views ~4.3), 256 MiB holds ~67
// million packed references (roughly 300–500 million simulated
// instructions' worth of stream) — comfortably above what the full
// default-budget evaluation suite touches, so eviction only engages on
// much larger instruction budgets.
const DefaultTraceCacheMB = 256

// DefaultConfig returns the standard fast configuration.
func DefaultConfig() Config {
	return Config{
		Scale:        8,
		WarmupInstr:  1_000_000,
		MeasureInstr: 3_000_000,
		Seed:         1,
		TraceCache:   true,
	}
}

// traceCacheBytes resolves the packed-stream cache budget in bytes.
func (c Config) traceCacheBytes() int64 {
	mb := c.TraceCacheMB
	if mb <= 0 {
		mb = DefaultTraceCacheMB
	}
	return int64(mb) << 20
}

// Params builds the machine description for a core count.
func (c Config) Params(cores int) cmp.Params {
	p := cmp.DefaultParams(cores, c.Scale)
	if c.L2SizeBytes > 0 {
		p.L2.SizeBytes = c.L2SizeBytes / c.Scale
	}
	p.Prefetch = c.Prefetch
	if c.sampled() {
		p.SampleDen = c.SampleDen
		// Sync cores at sampled granularity: a kept reference stands for
		// SampleDen full-stream references, so the exact per-reference
		// frontier would keep full-fidelity turn counts over 1/SampleDen the
		// references and the turn bookkeeping would swamp the kernel. The
		// slack recovers most of the lost references-per-turn; the interleave
		// skew it admits (SampleDen-1 skipped references' worth of base
		// cycles — 112 cycles at 1/8, a quarter of one memory round trip)
		// keeps the measured CPI drift within ~2% at 1/8, and the
		// `sampling` experiment golden pins the accuracy at every
		// denominator.
		p.SyncSlack = syncSlackPerSkip * float64(c.SampleDen-1)
	}
	return p
}

// sampled reports whether runs take the set-sampled fast path: SampleDen
// asks for it, and the stride prefetcher, whose state crosses sets, rules
// it out.
func (c Config) sampled() bool { return c.SampleDen > 1 && !c.Prefetch }

// syncSlackPerSkip is the sampled-run interleave slack per skipped
// reference (cmp.Params.SyncSlack), in cycles. The measured knee: 16
// recovers nearly all of the turn-overhead reduction that 4x coarser
// slack reaches (suite CPU 24s -> 21s at 1/8) while keeping mean
// aggregate-CPI drift ~2% where coarser slack reached 8%.
const syncSlackPerSkip = 16.0

// extend widens a mix to the configured core count (no-op when Cores is
// zero or the mix is already at least that wide).
func (c Config) extend(mix []int) []int { return workload.ExtendMix(mix, c.Cores) }

// L2Geometry returns (sets, ways) of the configured LLC — what policy
// constructors need.
func (c Config) L2Geometry() (sets, ways int) {
	p := c.Params(1)
	return p.L2.SizeBytes / p.L2.LineBytes / p.L2.Ways, p.L2.Ways
}

// ResizePeriod returns the AVGCC/QoS re-evaluation period for this
// configuration. The paper's 100 000 accesses amount to thousands of
// adaptation decisions over a 10-billion-instruction run; scaled runs are
// orders of magnitude shorter, so the period shrinks quadratically with the
// geometry scale (the counter count to refine through also shrinks) to give
// AVGCC a comparable number of decisions before measurement ends.
// Under set sampling the policies see 1/SampleDen of the L2 accesses for
// the same instruction count, so the period shrinks by the denominator too,
// keeping the adaptation cadence (decisions per instruction) aligned with
// the full-fidelity run it estimates.
func (c Config) ResizePeriod() uint64 {
	p := uint64(100000) / uint64(c.Scale*c.Scale)
	if p < 500 {
		p = 500
	}
	if c.sampled() {
		p /= uint64(c.SampleDen)
		if p < 1 {
			p = 1
		}
	}
	return p
}

// PolicyID names a cooperative-caching design for the registry.
type PolicyID string

// The registry of designs reproduced from the paper.
const (
	PBaseline PolicyID = "baseline"
	PCC       PolicyID = "CC"
	PDSR      PolicyID = "DSR"
	PDSRDIP   PolicyID = "DSR+DIP"
	PDSR3S    PolicyID = "DSR-3S"
	PECC      PolicyID = "ECC"
	PLRS      PolicyID = "LRS"
	PLMS      PolicyID = "LMS"
	PGMS      PolicyID = "GMS"
	PLMSBIP   PolicyID = "LMS+BIP"
	PGMSSABIP PolicyID = "GMS+SABIP"
	PASCC     PolicyID = "ASCC"
	PASCC2S   PolicyID = "ASCC-2S"
	PAVGCC    PolicyID = "AVGCC"
	PQoSAVGCC PolicyID = "QoS-AVGCC"
)

// NewPolicy instantiates a registry design for the given machine.
// resizePeriod is the AVGCC/QoS re-evaluation period in cache accesses;
// pass 0 for the paper's 100 000 (use Config.ResizePeriod for scaled runs).
func NewPolicy(id PolicyID, caches, sets, ways int, seed uint64, resizePeriod uint64) (coop.Policy, error) {
	if c, ok := asccDesign(id, caches, sets, ways, seed, resizePeriod); ok {
		return policies.NewASCCVariant(string(id), c), nil
	}
	switch id {
	case PBaseline:
		return policies.NewBaseline(), nil
	case PCC:
		return policies.NewCC(caches, seed), nil
	case PDSR:
		return policies.NewDSR(caches, sets, ways, seed), nil
	case PDSRDIP:
		return policies.NewDSRDIP(caches, sets, ways, seed), nil
	case PDSR3S:
		return policies.NewDSR3S(caches, sets, ways, seed), nil
	case PECC:
		return policies.NewECC(caches, sets, ways, seed), nil
	}
	return nil, fmt.Errorf("harness: unknown policy %q", id)
}

// asccDesign returns registry design id's point of the ASCC design space
// for the given machine; ok is false for designs outside the family.
func asccDesign(id PolicyID, caches, sets, ways int, seed uint64, resizePeriod uint64) (policies.ASCCConfig, bool) {
	if id != PAVGCC && id != PQoSAVGCC {
		return policies.Published(string(id), caches, sets, ways, seed)
	}
	c := policies.AVGCCDefaultConfig(caches, sets, ways, seed)
	if resizePeriod != 0 {
		c.ResizePeriod = resizePeriod
	}
	c.QoS = id == PQoSAVGCC
	return c, true
}

// Runner executes simulations described by a Spec. It is safe for
// concurrent use: any number of goroutines may issue runs, the
// configuration's worker pool bounds how many simulations occupy the
// machine, and a singleflight-style cache memoises every Run — concurrent
// or repeated requests for equal specs, including the alone-CPI and
// baseline-mix simulations that the weighted-speedup metrics repeat across
// figures, share a single simulation instead of duplicating it.
//
// Systems are recycled where the runner owns them: Run (and its wrappers
// RunMix, RunMT, AloneCPI, AloneCPIs) and RunTraces release each system as
// soon as its results are read, so its cache slabs and directory table back
// the next system built. RunSystem and Build hand the system to the caller,
// who owns it; the runner never releases those.
type Runner struct {
	Cfg Config

	pool *Pool

	// arenas is the packed reference-stream cache (nil when
	// Config.TraceCache is off): every registry run replays its workload
	// streams from memoised arenas instead of re-synthesising them, so the
	// 5–10 policy runs of a mix — and every other run touching the same
	// (benchmark, core, seed, scale) stream — share one generation pass.
	// Pool-attached runners share the pool's cache, extending the sharing
	// across experiments.
	arenas *trace.ArenaCache

	mu   sync.Mutex
	runs map[runKey]*inflight

	// nSims counts uncached simulations actually executed (tests assert
	// the memoisation collapses duplicates with it).
	nSims atomic.Uint64
}

// inflight is a singleflight slot: the first requester simulates, everyone
// else blocks on done and shares the outcome.
type inflight struct {
	done chan struct{}
	res  cmp.Results
	err  error
}

// NewRunner builds a Runner for the configuration, attaching the
// configuration's shared pool or a private one of Config.Parallel slots.
func NewRunner(cfg Config) *Runner {
	p := cfg.pool
	if p == nil {
		p = NewPool(cfg.Parallel)
	}
	return newRunner(cfg, p)
}

func newRunner(cfg Config, p *Pool) *Runner {
	cfg.pool = p
	r := &Runner{Cfg: cfg, pool: p, runs: map[runKey]*inflight{}}
	if cfg.TraceCache {
		r.arenas = p.arenaCache(cfg.traceCacheBytes())
		if cfg.ArenaStoreDir != "" {
			r.arenas.SetStore(store.New(cfg.ArenaStoreDir))
		}
	}
	return r
}

// DefaultArenaStoreDir returns the conventional persistent arena store
// root, ~/.cache/ascc/arenas (platform equivalent via os.UserCacheDir).
func DefaultArenaStoreDir() (string, error) { return store.DefaultDir() }

// FlushArenas persists every cached stream arena that grew since its last
// save to the configured persistent store. A no-op without a store (or
// with the trace cache off); call it once after a batch of runs — the CLI
// flushes per invocation — so later processes replay these streams
// instead of re-synthesising them.
func (r *Runner) FlushArenas() error {
	if r.arenas == nil {
		return nil
	}
	return r.arenas.FlushStore()
}

// FlushArenas persists the pool-wide stream cache to its persistent store
// (see Runner.FlushArenas); a no-op when no store-carrying runner is
// attached.
func (p *Pool) FlushArenas() error {
	p.arenaMu.Lock()
	a := p.arenas
	p.arenaMu.Unlock()
	if a == nil {
		return nil
	}
	return a.FlushStore()
}

// replayGens swaps each freshly built generator for an allocation-free
// replayer over its memoised packed arena (no-op when the trace cache is
// disabled). kind plus the slot index, the generator name and the runner's
// seed and scale uniquely determine the stream: workload generators derive
// their RNG seed and address base from the slot index, so e.g. benchmark
// 445 at core 0 produces one stream no matter which mix (or single-app
// baseline) it appears in — all of those runs replay one arena.
//
// When p carries a set sample (DESIGN.md §16) each stream is additionally
// filtered to the sampled sets: the filtered, address-rewritten stream is
// itself a cached arena — keyed by the parent arena's key plus the complete
// sample spec, so it composes with the LRU budget, the singleflight
// synthesis and the persistent store tier for free — built by a single
// straight-decode pass over the parent arena on first use. Every subsequent
// sampled run replays the compact stream at full arena speed, touching
// 1/Den of the references. The parent is resolved lazily (lazyParent): a
// sub-arena the cache or the store already holds far enough never maps,
// validates or synthesises its parent.
func (r *Runner) replayGens(kind string, gens []trace.Generator, p cmp.Params) ([]trace.Generator, error) {
	spec, err := p.SampleSpec()
	if err != nil {
		return nil, err
	}
	out := make([]trace.Generator, len(gens))
	for i, g := range gens {
		if r.arenas == nil {
			if spec == nil {
				out[i] = g
			} else {
				out[i] = spec.View(g) // live filtering, no cache to land in
			}
			continue
		}
		key := r.arenaKey(kind, i, g.Name())
		if spec == nil {
			out[i] = r.arenas.Get(key, g).NewReplayer()
			continue
		}
		parent := &lazyParent{name: g.Name(), resolve: func() trace.Generator {
			return spec.View(r.arenas.Get(key, g).NewReplayer())
		}}
		out[i] = r.arenas.Get(key+"?sample="+spec.String(), parent).NewReplayer()
	}
	return out, nil
}

// lazyParent is a sampled sub-arena's source: the sampled view of the
// parent arena, resolved only when the sub-arena first has to produce
// references it does not hold — a store miss, or extension past the stored
// prefix, which fast-forwards through this source. Its single consumer is
// the sub-arena's writer (serialised by the arena's mutex), so resolve runs
// at most once and with that mutex held; ArenaCache.Get is safe to call
// there because the cache never waits on an arena mutex.
type lazyParent struct {
	name    string
	resolve func() trace.Generator
	src     trace.Generator
}

// Name implements trace.Generator without resolving the parent.
func (l *lazyParent) Name() string { return l.name }

// Next implements trace.Generator.
func (l *lazyParent) Next() trace.Ref {
	var one [1]trace.Ref
	l.NextBatch(one[:])
	return one[0]
}

// NextBatch implements trace.Generator, resolving the parent on first use.
func (l *lazyParent) NextBatch(buf []trace.Ref) {
	if l.src == nil {
		l.src, l.resolve = l.resolve(), nil
	}
	l.src.NextBatch(buf)
}

// arenaKey names the packed arena for one stream slot: the cache (and the
// persistent store beneath it) rendezvous on this string, across runs and
// across processes.
func (r *Runner) arenaKey(kind string, slot int, name string) string {
	return fmt.Sprintf("%s/%d/%s/%d/%d", kind, slot, name, r.Cfg.Seed, r.Cfg.Scale)
}

// memo returns the cached result for key, running f exactly once per key
// even under concurrent callers.
func (r *Runner) memo(key runKey, f func() (cmp.Results, error)) (cmp.Results, error) {
	r.mu.Lock()
	if c, ok := r.runs[key]; ok {
		r.mu.Unlock()
		<-c.done
		return c.res, c.err
	}
	c := &inflight{done: make(chan struct{})}
	r.runs[key] = c
	r.mu.Unlock()
	c.res, c.err = f()
	close(c.done)
	return c.res, c.err
}

// simulate builds a system and runs it while holding one pool worker slot,
// returning its (ScaleSampled) results. Building inside the slot bounds the
// systems alive at once to the pool width: a built system pins its caches
// and stream sources until it runs, and an experiment fan-out may have
// every one of its cells waiting on the pool. With keep unset the system is
// released inside the slot, so the next build in it reuses its cache
// storage, and simulate returns a nil system; with keep set the system is
// returned to the caller, who owns it.
func (r *Runner) simulate(build func() (*cmp.System, error), keep bool) (res cmp.Results, sys *cmp.System, err error) {
	r.pool.run(func() {
		if sys, err = build(); err != nil {
			return
		}
		r.nSims.Add(1)
		res = sys.ScaleSampled(sys.Run(r.Cfg.WarmupInstr, r.Cfg.MeasureInstr))
		if !keep {
			sys.Release()
			sys = nil
		}
	})
	return res, sys, err
}

// Simulations reports how many simulations this runner has actually
// executed (cache hits excluded).
func (r *Runner) Simulations() uint64 { return r.nSims.Load() }

// Table is a renderable experiment result. The JSON tags are its stable
// JSON shape.
type Table struct {
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
}

// String renders the table as aligned text. Ragged rows are tolerated: a
// row with more cells than the header extends the width table (the extra
// columns simply have no heading) instead of panicking on widths[i].
func (t Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i == len(widths) {
				widths = append(widths, 0)
			}
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Pct formats a fraction as a signed percentage.
func Pct(x float64) string { return fmt.Sprintf("%+.1f%%", 100*x) }

// F2 formats a float with two decimals.
func F2(x float64) string { return fmt.Sprintf("%.2f", x) }
