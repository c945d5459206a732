package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ascc/internal/harness"
	"ascc/internal/trace"
	"ascc/internal/trace/store"
)

// profileSeconds is how long the profiled pass process runs passes.
const profileSeconds = 3

// allocSims is how many simulations the allocation count averages over.
const allocSims = 3

// traced is the traced run: a CPU profile of untraced passes bucketed by
// package, then — in a fresh process, like the timed passes, so the walls
// compare — every simulation rebuilt from the public constructors behind
// counting shims over the same store, and the layer microbenchmarks on
// inputs recorded from this workload. Its results digests must equal the
// untraced ones.
func (st *runState) traced() (map[string]metric, error) {
	prof := filepath.Join(st.work, "cpu.prof")
	if _, err := st.child(false, prof, profileSeconds); err != nil {
		return nil, fmt.Errorf("profiled pass: %w", err)
	}
	shares, err := cpuShares(prof)
	if err != nil {
		return nil, err
	}
	var tr tracedResult
	if err := st.exec(&tr, "-mode", "traced", "-store", st.storeDir); err != nil {
		return nil, fmt.Errorf("traced process: %w", err)
	}
	st.attempted += len(tr.Digests)
	for name, d := range tr.Digests {
		want := st.passes[0].Records[name].Digest
		full, pinned := tr.Full[name], st.pin.Full[name]
		if d != want || full != pinned {
			st.failed++
			st.note("traced %s: digest %s, untraced %s; complete results %s, pinned %s", name, d, want, full, pinned)
		}
	}

	m := tr.Metrics
	add := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	for _, layer := range []string{"trace", "cachesim", "cmp", "policies", "runtime"} {
		add(layer+".cpu_share", "frac", shares[layer])
	}
	var synth, filter, save, arenaMB []float64
	for _, s := range st.setups {
		synth = append(synth, float64(s.synthRefs)/s.synthS/1e6)
		if s.filterS > 0 { // only the sampled workload filters
			filter = append(filter, float64(s.filterRefs)/s.filterS/1e6)
		}
		save = append(save, s.saveS)
		arenaMB = append(arenaMB, float64(s.bytes)/(1<<20))
	}
	add("trace.synth_mrefs_per_s", "Mref/s", median(synth))
	add("trace.filter_mrefs_per_s", "Mref/s", median(filter))
	add("trace.arena_mb", "MB", median(arenaMB))
	add("store.saves", "count", float64(st.setups[len(st.setups)-1].saves))
	add("store.save_s", "s", median(save))
	var busy, gc, walls []float64
	for _, p := range st.passes {
		busy = append(busy, p.CPUS/(p.WallS*float64(st.workers)))
		gc = append(gc, p.GCFrac)
		walls = append(walls, p.WallS)
	}
	add("harness.worker_busy_frac", "frac", median(busy))
	add("runtime.gc_cpu_frac", "frac", median(gc))
	add("trace_overhead_pct", "%", 100*(tr.WallS/median(walls)-1))
	return m, nil
}

// tracedResult is what the traced process reports.
type tracedResult struct {
	WallS   float64           `json:"wall_s"`
	Digests map[string]string `json:"digests"`
	Full    map[string]string `json:"full,omitempty"` // scaleout widths' complete results
	Metrics map[string]metric `json:"metrics"`
}

// tracedMain is the traced process: the instrumented run over the store,
// the allocation count and the microbenchmarks, printed as JSON.
func tracedMain(o *options) error {
	w, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	seed := uint64(o.simSeed)
	pins, err := loadPins(o.root, seed)
	if err != nil {
		return err
	}
	pin := pins.Workloads[w.name]
	if pin == nil {
		return fmt.Errorf("no pins for %s at seed %d", w.name, seed)
	}
	tr, err := instrumented(w, seed, pin, o.store, poolWidth())
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(tr)
}

// instrumented runs every simulation of the workload through the counting
// shims over the store in dir and derives the per-layer metrics from them.
func instrumented(w *benchWorkload, seed uint64, pin *workloadPin, dir string, workers int) (tracedResult, error) {
	m := map[string]metric{}
	add := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	cfg := w.config(seed, w.timedDen(), workers)
	sims := w.sims(cfg)
	hookSim := ""
	for _, s := range sims {
		if s.policy != harness.PBaseline {
			hookSim = s.name
			break
		}
	}
	cache := trace.NewArenaCache(harness.DefaultTraceCacheMB << 20)
	arenaStore := store.New(dir)
	defer arenaStore.Close()
	cache.SetStore(arenaStore)
	r := &runner{cache: cache, workers: workers, recordHooks: hookSim}
	start := time.Now()
	outs, err := r.run(sims)
	wall := time.Since(start).Seconds()
	if err != nil {
		return tracedResult{}, fmt.Errorf("traced run: %w", err)
	}
	digests := map[string]string{}
	for n, rec := range records(sims, outs) {
		digests[n] = rec.Digest
	}
	full := map[string]string{}
	for i, s := range sims {
		if s.direct {
			full[s.name] = outs[i].full
		}
	}

	var refs, instr, l1a, l1h, l2a, l2l, remote, fills, wb, spills, spillHits, swaps, bus, probes uint64
	var replayNs, runNs int64
	var queue, hookS float64
	var calls [nHooks]uint64
	var newPol, dispatch []float64
	var hooks []hookEvent
	for _, o := range outs {
		for _, g := range o.gens {
			refs += g.refs
			replayNs += g.ns
		}
		for _, c := range o.res.Cores {
			l1a += c.L1Accesses
			l1h += c.L1Hits
			l2a += c.L2Accesses
			l2l += c.L2LocalHits
			remote += c.L2RemoteHits
			fills += c.L2MemFills
			wb += c.Writebacks
			spills += c.SpillsOut
			spillHits += c.SpillHits
			swaps += c.Swaps
			bus += c.BusTransfers
			queue += c.QueueDelay
		}
		instr += o.rec.Instr
		probes += o.probes
		runNs += o.runNs
		for h := range calls {
			calls[h] += o.pol.calls[h]
		}
		hookS += o.pol.hookSeconds()
		if o.pol.rec != nil {
			hooks = o.pol.rec.events
		}
		newPol = append(newPol, float64(o.newPolNs)/1e6)
		dispatch = append(dispatch, float64(o.dispatchNs)/1e6)
	}
	stats := arenaStore.Stats()

	add("trace.replay_refs", "count", float64(refs))
	add("trace.replay_s", "s", float64(replayNs)/1e9)
	add("store.loads", "count", float64(stats.Loads))
	add("store.misses", "count", float64(stats.Misses))
	add("store.corrupt", "count", float64(stats.Corrupt))
	add("cachesim.l1_accesses", "count", float64(l1a))
	add("cachesim.l1_hit_ratio", "ratio", ratio(l1h, l1a))
	add("cachesim.coherence_probes", "count", float64(probes))
	add("cmp.run_s", "s", float64(runNs)/1e9)
	add("cmp.ns_per_instr", "ns", float64(runNs)/float64(instr))
	add("cmp.l2_accesses", "count", float64(l2a))
	add("cmp.l2_local_hit_ratio", "ratio", ratio(l2l, l2a))
	add("cmp.remote_hits", "count", float64(remote))
	add("cmp.mem_fills", "count", float64(fills))
	add("cmp.writebacks", "count", float64(wb))
	add("cmp.spills_out", "count", float64(spills))
	add("cmp.swaps", "count", float64(swaps))
	add("cmp.spill_hit_ratio", "ratio", ratio(spillHits, spills))
	for h, name := range hookNames {
		add("policies.calls."+name, "count", float64(calls[h]))
	}
	add("policies.hook_s", "s", hookS)
	add("policies.new_ms", "ms", mean(newPol))
	add("mem.bus_transfers", "count", float64(bus))
	add("mem.queue_delay_cycles", "cycles", queue)
	add("harness.sims", "count", float64(len(sims)))
	add("harness.dispatch_ms_p50", "ms", median(dispatch))

	allocs, err := allocsPerSim(cache, sims)
	if err != nil {
		return tracedResult{}, err
	}
	add("runtime.allocs_per_sim", "count", allocs)

	micro, err := microbench(w, seed, pin, dir, cfg, cache, sims, hookSim, hooks)
	if err != nil {
		return tracedResult{}, err
	}
	for k, v := range micro {
		m[k] = v
	}
	return tracedResult{WallS: wall, Digests: digests, Full: full, Metrics: m}, nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// allocsPerSim counts heap allocations inside System.Run for the first
// allocSims simulations, run one at a time.
func allocsPerSim(cache *trace.ArenaCache, sims []sim) (float64, error) {
	if len(sims) > allocSims {
		sims = sims[:allocSims]
	}
	r := &runner{cache: cache, countAllocs: true}
	outs, err := r.run(sims)
	if err != nil {
		return 0, err
	}
	var n uint64
	for _, o := range outs {
		n += o.allocs
	}
	return float64(n) / float64(len(outs)), nil
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// cpuShares buckets a CPU profile's flat time by layer, with
// `go tool pprof -top`, as fractions of all samples.
func cpuShares(prof string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", prof).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	shares := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	inTable := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 5 && f[0] == "flat" {
			inTable = true
			continue
		}
		if !inTable || len(f) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			continue
		}
		shares[layerOf(strings.Join(f[5:], " "))] += pct / 100
	}
	if !inTable {
		return nil, fmt.Errorf("go tool pprof: no table in output")
	}
	return shares, nil
}

// layerOf maps a profiled function to its layer: the repository package
// under internal/ (ssl and coop count with policies, the store with
// trace), the Go runtime, or other.
func layerOf(fn string) string {
	const prefix = "ascc/internal/"
	if strings.HasPrefix(fn, prefix) {
		pkg := fn[len(prefix):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		switch pkg {
		case "ssl", "coop":
			return "policies"
		}
		return pkg
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") {
		return "runtime"
	}
	return "other"
}
