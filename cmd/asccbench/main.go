// Command asccbench reproduces the paper's tables and figures from the
// command line.
//
// Usage:
//
//	asccbench -exp fig8                 # one experiment (see -list)
//	asccbench -exp all                  # the full evaluation, paper order
//	asccbench -exp all -parallel 8      # same tables, 8 simulations at a time
//	asccbench -exp fig7 -scale 4 -measure 8000000
//	asccbench -exp all -timing          # wall-clock and peak RSS after each table
//	asccbench -list                     # experiment index
//	asccbench -mix 445+456 -policy AVGCC  # a single ad-hoc run
//
// Simulations fan out across -parallel worker slots (default: all CPUs);
// output is bit-identical at every setting, only wall-clock changes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"ascc"
	"ascc/internal/cmp"
)

// options collects the parsed command line; validate checks it before any
// simulation runs.
type options struct {
	exp        string
	list       bool
	scale      int
	warmup     uint64
	measure    uint64
	seed       uint64
	seeds      int
	parallel   int
	mix        string
	policy     string
	policySet  bool // -policy given explicitly (flag.Visit), not defaulted
	format     string
	traces     string
	traceMB    int
	storeDir   string // resolved -arena-store root; "" = store off
	prewarm    bool
	cores      int
	sample     string
	timing     bool
	cpuprofile string
	memprofile string
}

// storeFlag parses -arena-store[=dir]: the bare flag (or "on") resolves to
// the conventional ~/.cache/ascc/arenas root, "off" (or "false"/"no"/"0")
// disables the store, and anything else is taken as the store root itself.
type storeFlag struct {
	dir *string
}

func (s storeFlag) String() string {
	if s.dir == nil {
		return ""
	}
	return *s.dir
}

// IsBoolFlag lets plain `-arena-store` (no value) mean "on".
func (s storeFlag) IsBoolFlag() bool { return true }

func (s storeFlag) Set(v string) error {
	switch strings.ToLower(v) {
	case "off", "false", "no", "0":
		*s.dir = ""
		return nil
	case "", "on", "true", "yes", "1":
		dir, err := ascc.DefaultArenaStoreDir()
		if err != nil {
			return fmt.Errorf("resolving the default arena store root: %w (pass -arena-store=DIR explicitly)", err)
		}
		*s.dir = dir
		return nil
	default:
		*s.dir = v
		return nil
	}
}

// validate rejects out-of-range values and flag combinations that would
// otherwise be silently ignored.
func (o options) validate() error {
	if o.scale < 1 {
		return fmt.Errorf("-scale must be >= 1 (got %d; 1 is the paper's absolute geometry)", o.scale)
	}
	if err := cmp.DefaultParams(4, o.scale).Validate(); err != nil {
		return fmt.Errorf("-scale %d does not fit the cache geometry (use a power of two from 1 to 256): %w", o.scale, err)
	}
	if o.seeds < 1 {
		return fmt.Errorf("-seeds must be >= 1 (got %d)", o.seeds)
	}
	if o.parallel < 0 {
		return fmt.Errorf("-parallel must be >= 0 (got %d; 0 means all CPUs)", o.parallel)
	}
	switch o.format {
	case "text", "csv", "json":
	default:
		return fmt.Errorf("unknown format %q (want text, csv or json)", o.format)
	}
	if o.mix != "" && o.traces != "" {
		return fmt.Errorf("-mix and -trace are mutually exclusive")
	}
	if o.exp != "" && (o.mix != "" || o.traces != "") {
		return fmt.Errorf("-exp cannot be combined with -mix or -trace")
	}
	if o.seeds > 1 && o.mix == "" {
		return fmt.Errorf("-seeds only applies to -mix runs")
	}
	if o.format != "text" && (o.mix != "" || o.traces != "") {
		return fmt.Errorf("-format %s only applies to -exp runs (-mix and -trace always print text)", o.format)
	}
	if o.traceMB < 0 {
		return fmt.Errorf("-trace-cache-mb must be >= 0 (got %d; 0 means the default budget)", o.traceMB)
	}
	if o.policySet && o.mix == "" && o.traces == "" {
		return fmt.Errorf("-policy only applies to -mix and -trace runs (experiments compare the registry policies themselves)")
	}
	if o.cores < 0 {
		return fmt.Errorf("-cores must be >= 0 (got %d; 0 keeps each mix's natural width)", o.cores)
	}
	if o.cores > 64 {
		return fmt.Errorf("-cores must be <= 64 (got %d; coherence holder masks are one 64-bit word)", o.cores)
	}
	if o.cores > 0 && o.traces != "" {
		return fmt.Errorf("-cores does not apply to -trace replays (supply one trace file per core instead)")
	}
	if o.cores > 0 && (o.exp == "scaleout" || o.exp == "mt") {
		// scaleout runs its own widths (4 to 64 cores) and mt a fixed
		// thread count, so -cores would be silently ignored.
		return fmt.Errorf("-cores does not apply to -exp %s (it sets its own core count)", o.exp)
	}
	den, err := ascc.ParseSampleRatio(o.sample)
	if err != nil {
		return fmt.Errorf("-sample %s: want 1/N (e.g. 1/8) or off", o.sample)
	}
	if den > 1 {
		if o.traces != "" {
			return fmt.Errorf("-sample does not apply to -trace replays (external traces are not re-synthesisable, so filtered variants would shadow the real stream)")
		}
		if o.prewarm {
			return fmt.Errorf("-prewarm synthesises the full-fidelity arenas; drop -sample (sampled sub-arenas are derived from them on first use)")
		}
		if o.exp == "prefetch" {
			return fmt.Errorf("-sample is incompatible with the prefetch experiment (the stride prefetcher crosses set boundaries)")
		}
		if o.exp == "sampling" {
			return fmt.Errorf("-exp sampling measures the fast path's accuracy itself and controls -sample internally")
		}
	}
	if o.prewarm {
		if o.storeDir == "" {
			return fmt.Errorf("-prewarm persists stream arenas, so it requires -arena-store (and conflicts with -arena-store=off)")
		}
		if o.exp != "" || o.mix != "" || o.traces != "" {
			return fmt.Errorf("-prewarm builds arenas and exits (drop -exp/-mix/-trace; run them afterwards against the warm store)")
		}
	}
	// -trace replays the files directly: no stream is synthesised, so
	// neither the trace cache nor the arena store would ever be touched.
	if o.traces != "" && o.traceMB != 0 {
		return fmt.Errorf("-trace-cache-mb does not apply to -trace replays (the files are replayed directly, never cached)")
	}
	if o.traces != "" && o.storeDir != "" {
		return fmt.Errorf("-arena-store does not apply to -trace replays (the files are replayed directly, never persisted)")
	}
	return nil
}

// config builds the harness configuration from validated options.
func (o options) config() ascc.Config {
	cfg := ascc.DefaultConfig()
	cfg.Scale = o.scale
	cfg.Seed = o.seed
	cfg.Parallel = o.parallel
	cfg.TraceCacheMB = o.traceMB
	cfg.ArenaStoreDir = o.storeDir
	cfg.Cores = o.cores
	cfg.SampleDen, _ = ascc.ParseSampleRatio(o.sample) // validated
	if o.scale != 8 {
		// Scale the default budgets so reuse cycles complete (DESIGN.md §5).
		cfg.WarmupInstr = cfg.WarmupInstr * 8 / uint64(o.scale)
		cfg.MeasureInstr = cfg.MeasureInstr * 8 / uint64(o.scale)
	}
	if o.warmup > 0 {
		cfg.WarmupInstr = o.warmup
	}
	if o.measure > 0 {
		cfg.MeasureInstr = o.measure
	}
	return cfg
}

func main() {
	var o options
	flag.StringVar(&o.exp, "exp", "", "experiment id (fig1..fig11, table1/4/5, shared, mt, prefetch, spills, limited, ablation, futurework, scaleout, sampling) or 'all'")
	flag.BoolVar(&o.list, "list", false, "list experiment ids and exit")
	flag.IntVar(&o.scale, "scale", 8, "geometry scale divisor (1 = the paper's absolute sizes; slow)")
	flag.Uint64Var(&o.warmup, "warmup", 0, "warmup instructions per core (0 = default for the scale)")
	flag.Uint64Var(&o.measure, "measure", 0, "measured instructions per core (0 = default for the scale)")
	flag.Uint64Var(&o.seed, "seed", 1, "random seed")
	flag.IntVar(&o.seeds, "seeds", 1, "with -mix: repeat over N seeds and report mean ± 95% CI")
	flag.IntVar(&o.parallel, "parallel", 0, "max simulations in flight (0 = all CPUs, 1 = sequential; results are identical at every setting)")
	flag.StringVar(&o.mix, "mix", "", "ad-hoc mix to run, e.g. 445+456 or 445+401+444+456")
	flag.StringVar(&o.policy, "policy", "AVGCC", "policy for -mix/-trace (baseline, CC, DSR, DSR+DIP, DSR-3S, ECC, LRS, LMS, GMS, LMS+BIP, GMS+SABIP, ASCC, ASCC-2S, AVGCC, QoS-AVGCC)")
	flag.StringVar(&o.format, "format", "text", "experiment output format: text, csv or json")
	flag.StringVar(&o.traces, "trace", "", "comma-separated trace files (.trc binary or .csv), one per core, replayed under -policy")
	flag.IntVar(&o.traceMB, "trace-cache-mb", 0, "memory budget in MiB of the trace cache, which memoises each workload reference stream in a packed arena and replays it across policies, before LRU eviction (0 = default budget)")
	flag.Var(storeFlag{&o.storeDir}, "arena-store", "persist packed stream arenas across processes: bare flag uses ~/.cache/ascc/arenas, =DIR overrides the root, =off disables (the default; results are identical cold or warm)")
	flag.BoolVar(&o.prewarm, "prewarm", false, "synthesise and persist every stream arena the experiment suite uses, then exit (requires -arena-store; later runs replay instead of regenerating)")
	flag.IntVar(&o.cores, "cores", 0, "widen every mix to this many cores by cyclic replication, max 64 (0 = each mix's natural width; single-app calibrations stay one-core)")
	flag.StringVar(&o.sample, "sample", "off", "set-sampled fast-path ratio: 1/N simulates a deterministic 1/N subset of the LLC sets (always including the policies' leader sets) on pre-filtered streams, off (the default) runs full fidelity; single-core per-set behaviour is exact, multi-core results are close estimates (DESIGN.md §16)")
	flag.BoolVar(&o.timing, "timing", false, "print wall-clock and peak RSS after each experiment table or ad-hoc run (to stderr under -format csv/json so the stream stays parseable)")
	flag.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the run to this file (inspect with go tool pprof)")
	flag.StringVar(&o.memprofile, "memprofile", "", "write a heap profile taken at exit to this file")
	flag.Parse()
	// Distinguish "-policy AVGCC" from the default so validate can reject
	// combinations where the flag would be silently ignored.
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "policy" {
			o.policySet = true
		}
	})

	if o.list {
		fmt.Println("experiments (paper artefact -> id):")
		for _, id := range ascc.ExperimentIDs() {
			fmt.Println("  " + id)
		}
		return
	}
	if o.traces == "" && o.mix == "" && o.exp == "" && !o.prewarm {
		flag.Usage()
		os.Exit(2)
	}
	// All real work happens in run so its defers — in particular stopping
	// the CPU profile and flushing the heap profile — execute before the
	// process exits; os.Exit here would silently truncate the profiles.
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "asccbench:", err)
		os.Exit(1)
	}
}

// run executes the selected mode under the (optional) profilers.
func run(o options) error {
	if err := o.validate(); err != nil {
		return err
	}
	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if o.memprofile != "" {
		defer func() {
			f, err := os.Create(o.memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "asccbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialise the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "asccbench: memprofile:", err)
			}
		}()
	}
	cfg := o.config()

	// One pool for the whole evaluation (-exp all) so experiments share
	// memoised baselines suite-wide — and for any store-backed run, so the
	// arenas every runner grew can be flushed to disk in one place after
	// the work succeeds.
	var pool *ascc.Pool
	if o.exp == "all" || o.storeDir != "" {
		pool = ascc.NewPool(cfg.Parallel)
		cfg = cfg.WithPool(pool)
	}

	err := func() error {
		switch {
		case o.prewarm:
			return timed(o, "prewarm", func() error {
				n, err := ascc.NewRunner(cfg).PrewarmArenas()
				if err != nil {
					return err
				}
				fmt.Fprintf(o.timingWriter(), "prewarmed %d stream arenas into %s\n", n, o.storeDir)
				return nil
			})
		case o.traces != "":
			return timed(o, "trace replay", func() error {
				return runTraces(cfg, o.traces, o.policy)
			})
		case o.mix != "" && o.seeds > 1:
			return timed(o, "mix "+o.mix, func() error {
				return runMixSeeds(cfg, o.mix, o.policy, o.seeds)
			})
		case o.mix != "":
			return timed(o, "mix "+o.mix, func() error {
				return runMix(cfg, o.mix, o.policy)
			})
		case o.exp == "all":
			// Experiments run one at a time (so tables stream in paper
			// order) but fan their simulations out across the workers.
			for _, id := range ascc.ExperimentIDs() {
				if err := runExperiment(cfg, id, o); err != nil {
					return err
				}
			}
			return nil
		default:
			return runExperiment(cfg, o.exp, o)
		}
	}()
	if err == nil && pool != nil {
		// Write-behind: persist every stream arena this invocation grew,
		// so the next process replays instead of regenerating. A no-op
		// without -arena-store.
		if ferr := pool.FlushArenas(); ferr != nil {
			return fmt.Errorf("flushing the arena store: %w", ferr)
		}
	}
	return err
}

// timingWriter is where -timing lines go: stdout in text mode, stderr when
// -format is csv or json so redirecting stdout still yields a
// machine-parseable stream.
func (o options) timingWriter() io.Writer {
	if o.format != "text" {
		return os.Stderr
	}
	return os.Stdout
}

// timed wraps one unit of work with the -timing report: its wall-clock and,
// where the host reports it, the process's peak resident set so far.
func timed(o options, what string, work func() error) error {
	start := time.Now()
	if err := work(); err != nil {
		return err
	}
	if o.timing {
		rss := ""
		if mb, ok := peakRSSMB(); ok {
			rss = fmt.Sprintf(", peak RSS %.1f MB", mb)
		}
		fmt.Fprintf(o.timingWriter(), "[%s finished in %.1fs%s]\n\n", what, time.Since(start).Seconds(), rss)
	}
	return nil
}

// peakRSSMB returns the process's peak resident set size in MB (VmHWM,
// kB/1024), or false where /proc/self/status is absent or lacks the line.
func peakRSSMB() (float64, bool) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(v, "kB")), 64)
			return kb / 1024, err == nil
		}
	}
	return 0, false
}

func runExperiment(cfg ascc.Config, id string, o options) error {
	return timed(o, id, func() error {
		res, err := ascc.RunExperiment(cfg, id)
		if err != nil {
			return err
		}
		switch o.format {
		case "csv":
			return res.Table.CSV(os.Stdout)
		case "json":
			return res.Table.JSON(os.Stdout)
		case "text":
			fmt.Println(res.Table)
			return nil
		}
		return fmt.Errorf("unknown format %q (want text, csv or json)", o.format)
	})
}

// runMixSeeds repeats one mix/policy comparison across several seeds.
func runMixSeeds(cfg ascc.Config, mixSpec, policy string, n int) error {
	mixIDs, err := parseMix(mixSpec)
	if err != nil {
		return err
	}
	runner := ascc.NewRunner(cfg)
	st, err := runner.SpeedupOverSeeds(mixIDs, ascc.Policy(policy), n)
	if err != nil {
		return err
	}
	fmt.Printf("mix %s under %s vs baseline over %d seeds:\n  weighted speedup %s\n",
		ascc.MixName(mixIDs), policy, n, st)
	return nil
}

// runTraces replays externally supplied trace files, one per core.
func runTraces(cfg ascc.Config, spec, policy string) error {
	paths := strings.Split(spec, ",")
	specs := make([]ascc.TraceSpec, len(paths))
	for i, p := range paths {
		specs[i] = ascc.TraceSpec{Path: strings.TrimSpace(p)}
	}
	runner := ascc.NewRunner(cfg)
	res, err := runner.RunTraces(specs, ascc.Policy(policy))
	if err != nil {
		return err
	}
	fmt.Printf("replayed %d traces under %s\n", len(specs), policy)
	fmt.Printf("%-6s %-20s %8s %8s %10s %10s %8s\n",
		"core", "trace", "CPI", "MPKI", "spillsOut", "spillsIn", "AML")
	for i, c := range res.Cores {
		fmt.Printf("%-6d %-20s %8.3f %8.2f %10d %10d %8.1f\n",
			i, specs[i].Path, c.CPI(), c.MPKI(), c.SpillsOut, c.SpillsIn, c.AML())
	}
	return nil
}

// parseMix parses "445+456" into benchmark ids.
func parseMix(mixSpec string) ([]int, error) {
	parts := strings.Split(mixSpec, "+")
	mixIDs := make([]int, 0, len(parts))
	for _, p := range parts {
		id, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad mix element %q: %w", p, err)
		}
		mixIDs = append(mixIDs, id)
	}
	return mixIDs, nil
}

func runMix(cfg ascc.Config, mixSpec, policy string) error {
	mixIDs, err := parseMix(mixSpec)
	if err != nil {
		return err
	}
	// The runner widens every run the same way; widen here too so the
	// per-core report below lines up with the widened Results.
	mixIDs = ascc.ExtendMix(mixIDs, cfg.Cores)
	runner := ascc.NewRunner(cfg)
	// The runner memoises registry runs, so when -policy is "baseline" the
	// comparison below reuses the base simulation instead of repeating it,
	// and the alone-CPI calibrations share any single-app runs already done.
	base, err := runner.RunMix(mixIDs, ascc.Baseline)
	if err != nil {
		return err
	}
	res, err := runner.RunMix(mixIDs, ascc.Policy(policy))
	if err != nil {
		return err
	}
	alone, err := runner.AloneCPIs(mixIDs)
	if err != nil {
		return err
	}
	ws := ascc.WeightedSpeedup(ascc.CPIs(res), alone)
	wsBase := ascc.WeightedSpeedup(ascc.CPIs(base), alone)
	fmt.Printf("mix %s under %s vs baseline: weighted speedup %+.2f%%\n",
		ascc.MixName(mixIDs), policy, 100*(ws/wsBase-1))
	fmt.Printf("%-6s %-10s %8s %8s %8s %10s %10s %8s\n",
		"core", "benchmark", "CPI", "base", "MPKI", "spillsOut", "spillsIn", "AML")
	for i, c := range res.Cores {
		p, _ := ascc.BenchmarkByID(mixIDs[i])
		fmt.Printf("%-6d %-10s %8.3f %8.3f %8.2f %10d %10d %8.1f\n",
			i, p.Name, c.CPI(), base.Cores[i].CPI(), c.MPKI(), c.SpillsOut, c.SpillsIn, c.AML())
	}
	return nil
}
