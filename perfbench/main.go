// Command perfbench is the repository benchmark. It drives the simulator
// through the public Go entry points of its layers on four workloads taken
// from the paper's evaluation, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload paper4-full --seed 1 --seconds 10 --trace 0
//
// Each run has a set-up phase (a fresh private arena store holding the
// streams the run reads, built five times and timed), a timed phase (whole
// experiment passes, each in its own child process, repeated until
// --seconds have elapsed; every simulation is checked against pinned
// digests and, at the default seed, the golden tables), and then either the
// accuracy of the 1/8 set-sampled estimate (--trace 0; full-fidelity
// workloads run one untimed shadow pass at 1/8 for it) or a traced run that
// rebuilds every simulation from the public constructors behind counting
// shims and reports per-layer figures (--trace 1).
//
// Other modes: -mode selfcheck runs two sets of runs and reports whether
// they agree within BENCHMARK.json's bounds; -mode pin regenerates the
// pinned digests under perfbench/pins; -mode pass and -mode traced are the
// child processes of a run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

type options struct {
	root, build string
	mode        string

	workload string
	seed     int64
	seconds  float64
	trace    int

	// pass (child) mode
	simSeed    int64
	shadow     bool
	store      string
	cpuprofile string
	minSeconds float64

	// pin and selfcheck modes
	seeds     string
	workloads string
	runs      int
	sets      int
}

// setupReps is how many times each run builds its store; setup_s is their
// mean at the reference host speed. Set-up is short and dominated by file
// syncs, so one build is noisy.
const setupReps = 5

// minPasses is the fewest timed passes a run makes, however long they take.
const minPasses = 3

func main() {
	var o options
	flag.StringVar(&o.root, "root", ".", "repository root")
	flag.StringVar(&o.build, "build", ".bench_build", "build and work directory")
	flag.StringVar(&o.mode, "mode", "run", "run, selfcheck, pin, or the child modes pass and traced")
	flag.StringVar(&o.workload, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Int64Var(&o.seed, "seed", 1, "benchmark seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "seconds of timed passes per run")
	flag.IntVar(&o.trace, "trace", 0, "1: report per-layer metrics from a traced run")
	flag.Int64Var(&o.simSeed, "sim-seed", 1, "pass mode: simulation seed")
	flag.BoolVar(&o.shadow, "shadow", false, "pass mode: run a full-fidelity workload at 1/8 set sampling, without a store")
	flag.StringVar(&o.store, "store", "", "pass mode: arena store directory")
	flag.StringVar(&o.cpuprofile, "cpuprofile", "", "pass mode: write a CPU profile here")
	flag.Float64Var(&o.minSeconds, "min-seconds", 0, "pass mode: repeat passes for at least this long")
	flag.StringVar(&o.seeds, "seeds", fmt.Sprintf("1-%d", pinSeeds), "pin mode: simulation seeds; selfcheck mode: benchmark seeds")
	flag.StringVar(&o.workloads, "workloads", "", "pin and selfcheck modes: comma-separated workloads (default all)")
	flag.IntVar(&o.runs, "runs", 5, "selfcheck mode: runs per set")
	flag.IntVar(&o.sets, "sets", 2, "selfcheck mode: sets of runs")
	flag.Parse()

	var err error
	switch o.mode {
	case "run":
		err = runMain(&o)
	case "pass":
		err = passMain(&o)
	case "traced":
		err = tracedMain(&o)
	case "pin":
		err = pinMain(&o)
	case "selfcheck":
		err = selfcheckMain(&o)
	default:
		err = fmt.Errorf("unknown mode %q", o.mode)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// poolWidth is the worker pool width: one slot per CPU, at most two, so
// figures taken on hosts with two or more CPUs stay comparable.
func poolWidth() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runState accumulates one run's outcome.
type runState struct {
	o       *options
	w       *benchWorkload
	seed    uint64
	pin     *workloadPin
	workers int
	work    string

	attempted, failed int
	notes             []string

	setups    []setupStats
	setupCals []float64 // the reference kernels, just before each set-up
	storeDir  string
	passes    []passResult
	passCals  []float64 // the reference kernels, just before each pass
}

func (st *runState) note(format string, a ...any) {
	msg := fmt.Sprintf(format, a...)
	st.notes = append(st.notes, msg)
	fmt.Fprintln(os.Stderr, "perfbench:", msg)
}

// runMain is one benchmark run: set-up, timed passes, then accuracy or the
// traced run. Problems with the program's outputs are failed operations;
// problems running the benchmark itself are errors.
func runMain(o *options) error {
	w, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	st := &runState{o: o, w: w, seed: simSeed(o.seed), workers: poolWidth()}
	pins, err := loadPins(o.root, st.seed)
	if err != nil {
		return err
	}
	if st.pin = pins.Workloads[w.name]; st.pin == nil {
		return fmt.Errorf("no pins for %s at seed %d", w.name, st.seed)
	}
	st.work = filepath.Join(o.build, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(st.work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(st.work)

	for k := 0; k < setupReps; k++ {
		dir := filepath.Join(st.work, fmt.Sprintf("store-%d", k))
		st.setupCals = append(st.setupCals, calibrate(st.workers))
		s, err := setup(w, st.seed, st.pin, dir, st.workers)
		if err != nil {
			return err
		}
		if st.storeDir != "" {
			os.RemoveAll(st.storeDir)
		}
		st.storeDir = dir
		st.setups = append(st.setups, s)
	}

	nsims := len(st.pin.Records)
	start := time.Now()
	for {
		el := time.Since(start).Seconds()
		if len(st.passes) > 0 && el >= o.seconds && (len(st.passes) >= minPasses || el >= 4*o.seconds) {
			break
		}
		// The kernels run here rather than in the pass process, so that its
		// peak RSS stays the pass's own.
		cal := calibrate(st.workers)
		res, err := st.child(false, "", 0)
		st.attempted += nsims
		if err != nil {
			st.failed += nsims
			st.note("timed pass: %v", err)
			break
		}
		failed, why := checkPass(o.root, w, st.seed, st.pin, res)
		st.failed += failed
		for _, n := range why {
			st.note("timed pass: %s", n)
		}
		st.passes = append(st.passes, res)
		st.passCals = append(st.passCals, cal)
	}
	if len(st.passes) == 0 {
		return st.emit(nil)
	}

	if o.trace == 1 {
		m, err := st.traced()
		if err != nil {
			return err
		}
		return st.emit(m)
	}
	m, err := st.endToEnd()
	if err != nil {
		return err
	}
	return st.emit(m)
}

// endToEnd computes the end-to-end metrics. The times are the run's mean
// pass wall and mean set-up wall at the reference host speed (see calRefS).
func (st *runState) endToEnd() (map[string]metric, error) {
	var rss []float64
	var wallSum, calSum float64
	for i, p := range st.passes {
		wallSum += p.WallS
		calSum += st.passCals[i]
		rss = append(rss, p.PeakRSSMB)
	}
	wall := atRefSpeed(wallSum, calSum)
	// Every correct pass retires the same instructions (its records are
	// checked against the pins).
	var instr uint64
	for _, r := range st.passes[0].Records {
		instr += r.Instr
	}
	var setupSum, setupCalSum float64
	for i, s := range st.setups {
		setupSum += s.wallS
		setupCalSum += st.setupCals[i]
	}
	live, err := st.estimate()
	if err != nil {
		return nil, err
	}
	cpiErr, impErr, err := st.accuracy(live)
	if err != nil {
		return nil, err
	}
	return map[string]metric{
		"wall_s":          {wall, "s"},
		"minstr_per_s":    {float64(instr) / wall / 1e6, "Minstr/s"},
		"peak_rss_mb":     {median(rss), "MB"},
		"setup_s":         {atRefSpeed(setupSum, setupCalSum), "s"},
		"est_cpi_err_pct": {cpiErr, "%"},
		"est_ws_err_pp":   {impErr, "pp"},
	}, nil
}

// estimate measures the 1/sampleDen estimate's error against full fidelity
// at the run's seed. The sampled workload compares its timed results with
// its pinned full-fidelity reference. A full-fidelity workload runs one
// untimed shadow pass of its experiments at 1/sampleDen (live synthesis,
// no store) and compares it with its timed results; since those matched
// their pins, a shadow figure that differs from the pinned one means the
// sampled path changed, and the shadow pass's simulations fail until the
// pins are regenerated.
func (st *runState) estimate() (accuracyPin, error) {
	var a accuracyPin
	var err error
	if st.w.sampled {
		a.CPIErrPct, a.WSErrPP, err = accuracy(st.w, st.seed, st.passes[0].Records, st.pin.Reference)
		return a, err
	}
	nsims := len(st.pin.Records)
	st.attempted += nsims
	shadow, err := st.child(true, "", 0)
	if err != nil {
		st.failed += nsims
		st.note("shadow pass: %v", err)
		return st.pin.Accuracy, nil
	}
	if a.CPIErrPct, a.WSErrPP, err = accuracy(st.w, st.seed, shadow.Records, cpiMap(st.passes[0].Records)); err != nil {
		return a, err
	}
	if a != st.pin.Accuracy {
		st.failed += nsims
		st.note("shadow pass: 1/%d accuracy %+v, pinned %+v (regenerate the pins after an intended change)", sampleDen, a, st.pin.Accuracy)
	}
	return a, nil
}

// accuracy averages the estimate's error over every pinned seed, so that
// it does not move with --seed (it spreads by up to 44% from seed to seed):
// the run's own seed contributes the figure this run measured, the others
// their pinned figures, which pin mode measures the same way.
func (st *runState) accuracy(live accuracyPin) (float64, float64, error) {
	var cpi, ws float64
	for s := uint64(1); s <= pinSeeds; s++ {
		a := live
		if s != st.seed {
			pf, err := loadPins(st.o.root, s)
			if err != nil {
				return 0, 0, err
			}
			wp := pf.Workloads[st.w.name]
			if wp == nil {
				return 0, 0, fmt.Errorf("no pins for %s at seed %d", st.w.name, s)
			}
			a = wp.Accuracy
		}
		cpi += a.CPIErrPct / pinSeeds
		ws += a.WSErrPP / pinSeeds
	}
	return cpi, ws, nil
}

// child runs one pass (or a profiled run of passes) in a child process:
// the timed configuration over the run's store, or the 1/sampleDen shadow
// configuration without one.
func (st *runState) child(shadow bool, cpuprofile string, minSeconds float64) (passResult, error) {
	args := []string{"-mode", "pass", "-cpuprofile", cpuprofile,
		"-min-seconds", strconv.FormatFloat(minSeconds, 'g', -1, 64)}
	if shadow {
		args = append(args, "-shadow")
	} else {
		args = append(args, "-store", st.storeDir)
	}
	var res passResult
	if err := st.exec(&res, args...); err != nil {
		return passResult{}, fmt.Errorf("pass process: %w", err)
	}
	return res, nil
}

// exec runs this program as a child process on the run's workload and seed
// with the extra arguments, and decodes its JSON output into v.
func (st *runState) exec(v any, args ...string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, append([]string{"-root", st.o.root, "-build", st.o.build,
		"-workload", st.w.name, "-sim-seed", strconv.FormatUint(st.seed, 10)}, args...)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return err
	}
	return json.Unmarshal(out, v)
}

// emit prints the environment line and the result line.
func (st *runState) emit(m map[string]metric) error {
	env := map[string]any{
		"commit":     sourceCommit(st.o.root),
		"go":         runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"pool_width": st.workers,
		"workload":   st.w.name,
		"seed":       st.o.seed,
		"sim_seed":   st.seed,
		"passes":     len(st.passes),
	}
	var walls, cpus, setups []float64
	for _, p := range st.passes {
		walls = append(walls, p.WallS)
		cpus = append(cpus, p.CPUS)
	}
	for _, s := range st.setups {
		setups = append(setups, s.wallS)
	}
	env["pass_walls"], env["pass_cpu"], env["pass_cal"] = walls, cpus, st.passCals
	env["setup_walls"], env["setup_cal"] = setups, st.setupCals
	if len(st.notes) > 0 {
		env["notes"] = st.notes
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"env": env}); err != nil {
		return err
	}
	if m == nil {
		m = map[string]metric{}
	}
	return enc.Encode(result{
		Correct:   st.failed == 0 && len(st.passes) > 0,
		Attempted: st.attempted,
		Failed:    st.failed,
		Metrics:   m,
	})
}
