package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"syscall"
	"time"

	"ascc/internal/experiments"
	"ascc/internal/harness"
)

// passResult is one timed pass, reported by the child process that ran it.
type passResult struct {
	WallS     float64           `json:"wall_s"`
	CPUS      float64           `json:"cpu_s"`       // process user+system CPU during the pass
	GCFrac    float64           `json:"gc_cpu_frac"` // GC share of the Go runtime's busy CPU
	PeakRSSMB float64           `json:"peak_rss_mb"` // process peak RSS (the pass is all the process does)
	Records   map[string]record `json:"records"`
	CSV       map[string]string `json:"csv"`
	// StoreChanged lists arena files the pass created or rewrote: a store
	// miss or a corrupt file re-synthesises its stream and an arena that
	// grew past its persisted prefix is re-saved, and both surface here
	// when the pass flushes its cache to the store.
	StoreChanged []string `json:"store_changed"`
}

// runPass runs the workload's experiments once on a fresh pool over the
// arena store in dir (no store when dir is empty) and collects every
// simulation's record through the runners' memo.
func runPass(w *benchWorkload, seed uint64, den, workers int, dir string) (passResult, error) {
	cfg := w.config(seed, den, workers)
	cfg.ArenaStoreDir = dir
	pool := harness.NewPool(workers)
	cfg = cfg.WithPool(pool)
	before, err := storeSnapshot(dir)
	if err != nil {
		return passResult{}, err
	}

	cpu0, gc0 := processCPU(), runtimeCPU()
	start := time.Now()
	results := make([]experiments.Result, len(w.exps))
	err = harness.ForEach(len(w.exps), func(i int) error {
		res, err := w.exps[i].fn(cfg)
		results[i] = res
		return err
	})
	wall := time.Since(start).Seconds()
	cpu1, gc1 := processCPU(), runtimeCPU()
	if err != nil {
		return passResult{}, err
	}

	out := passResult{WallS: wall, CPUS: cpu1 - cpu0, CSV: map[string]string{}}
	if busy := gc1.busy - gc0.busy; busy > 0 {
		out.GCFrac = (gc1.gc - gc0.gc) / busy
	}
	byID := map[string]experiments.Result{}
	for i, e := range w.exps {
		var b bytes.Buffer
		if err := results[i].Table.CSV(&b); err != nil {
			return passResult{}, err
		}
		out.CSV[e.id] = b.String()
		byID[e.id] = results[i]
	}
	if out.Records, err = collectRecords(w, cfg, pool, byID); err != nil {
		return passResult{}, err
	}
	if dir != "" {
		if err := pool.FlushArenas(); err != nil {
			return passResult{}, err
		}
		after, err := storeSnapshot(dir)
		if err != nil {
			return passResult{}, err
		}
		for name, fi := range after {
			if old, ok := before[name]; !ok || old != fi {
				out.StoreChanged = append(out.StoreChanged, name)
			}
		}
	}
	out.PeakRSSMB = peakRSSMB()
	return out, nil
}

// collectRecords reads every simulation's results back from the runners'
// memo (cache hits: nothing re-simulates, which the simulation counters
// confirm) and the scaleout widths from the scaleout table.
func collectRecords(w *benchWorkload, cfg harness.Config, pool *harness.Pool, byID map[string]experiments.Result) (map[string]record, error) {
	sims := w.sims(cfg)
	runners := map[*harness.Runner]bool{}
	for _, s := range sims {
		if !s.direct {
			runners[pool.Runner(s.cfg)] = true
		}
	}
	count := func() uint64 {
		var n uint64
		for r := range runners {
			n += r.Simulations()
		}
		return n
	}
	n0 := count()
	recs := map[string]record{}
	for _, s := range sims {
		if s.direct {
			rec, err := scaleoutTableRecord(byID["scaleout"], s.cores(), s.cfg.WarmupInstr)
			if err != nil {
				return nil, err
			}
			recs[s.name] = rec
			continue
		}
		r := pool.Runner(s.cfg)
		var err error
		var rec record
		switch s.kind {
		case "mix":
			res, e := r.RunMix(s.mix, s.policy)
			rec, err = resultsRecord(res, s.cfg.WarmupInstr), e
		case "mt":
			res, e := r.RunMT(s.mt, mtThreads, s.policy)
			rec, err = resultsRecord(res, s.cfg.WarmupInstr), e
		}
		if err != nil {
			return nil, err
		}
		recs[s.name] = rec
	}
	if n := count(); n != n0 {
		return nil, fmt.Errorf("collecting records re-ran %d simulations: the workload's simulation list disagrees with its experiments", n-n0)
	}
	return recs, nil
}

// scaleoutTableRecord rebuilds one width's record from the scaleout table
// row and its full-precision values.
func scaleoutTableRecord(res experiments.Result, cores int, warmup uint64) (record, error) {
	for _, row := range res.Table.Rows {
		if len(row) < 2 || row[0] != strconv.Itoa(cores) {
			continue
		}
		instr, err := strconv.ParseUint(row[1], 10, 64)
		if err != nil {
			return record{}, fmt.Errorf("scaleout row %v: %w", row, err)
		}
		cpi, ok1 := res.Values[fmt.Sprintf("cpi/%dcores", cores)]
		probes, ok2 := res.Values[fmt.Sprintf("probes/%dcores", cores)]
		if !ok1 || !ok2 {
			return record{}, fmt.Errorf("scaleout values for %d cores missing", cores)
		}
		return scaleoutRecord(cores, instr, cpi, uint64(probes), warmup), nil
	}
	return record{}, fmt.Errorf("scaleout table has no %d-core row", cores)
}

// fileState is what a store snapshot compares.
type fileState struct {
	size  int64
	mtime int64
}

func storeSnapshot(dir string) (map[string]fileState, error) {
	m := map[string]fileState{}
	if dir == "" {
		return m, nil
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("reading store: %w", err)
	}
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			return nil, err
		}
		m[e.Name()] = fileState{fi.Size(), fi.ModTime().UnixNano()}
	}
	return m, nil
}

// processCPU returns the process's user+system CPU seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMB returns the process's peak resident set (VmHWM), in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// runtimeCPU reads the Go runtime's CPU accounting: GC CPU and total busy
// (non-idle) CPU, in seconds.
type rtCPU struct{ gc, busy float64 }

func runtimeCPU() rtCPU {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	v := func(i int) float64 {
		if s[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return s[i].Value.Float64()
	}
	return rtCPU{gc: v(0), busy: v(1) - v(2)}
}

// passMain is the child-process entry: run passes (one, or enough to fill
// minSeconds when profiling), print the last pass as JSON. A shadow pass
// runs the workload at 1/sampleDen without a store.
func passMain(o *options) error {
	w, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	den, dir := w.timedDen(), o.store
	if o.shadow {
		den, dir = sampleDen, ""
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
	start := time.Now()
	for {
		res, err := runPass(w, uint64(o.simSeed), den, poolWidth(), dir)
		if err != nil {
			return err
		}
		if time.Since(start).Seconds() >= o.minSeconds {
			return json.NewEncoder(os.Stdout).Encode(res)
		}
	}
}
