package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"ascc/internal/harness"
	"ascc/internal/trace"
	"ascc/internal/trace/store"
)

// pinSeeds is how many simulation seeds carry pinned outputs. The
// benchmark's --seed n runs simulation seed 1 + (n-1) mod pinSeeds, so
// every run is checked against pinned digests; seed 1 is the golden
// tables' seed, seeds 2..pinSeeds are held out from them.
const pinSeeds = 10

func simSeed(n int64) uint64 {
	return uint64(1 + ((n-1)%pinSeeds+pinSeeds)%pinSeeds)
}

// pinFile is everything pinned for one simulation seed.
type pinFile struct {
	Seed      uint64                  `json:"seed"`
	Workloads map[string]*workloadPin `json:"workloads"`
}

// workloadPin is the pinned output and input plan of one workload.
type workloadPin struct {
	// Records maps each simulation to its results digest.
	Records map[string]string `json:"records"`
	// Full maps each scaleout width to the digest of its complete results,
	// which only the constructor path sees; Records holds its table record.
	Full map[string]string `json:"full,omitempty"`
	// CSV maps each experiment id to the SHA-256 of its CSV rendering.
	CSV map[string]string `json:"csv"`
	// Needs maps each parent stream key to the references set-up must
	// synthesise: the most any timed simulation replays, or that filtering
	// the sampled sub-arena consumes, whichever is larger.
	Needs map[string]uint64 `json:"needs"`
	// Sampled maps each parent stream key to the references of its
	// 1/sampleDen sub-arena that the sampled workload's simulations replay.
	Sampled map[string]uint64 `json:"sampled,omitempty"`
	// Reference holds, for the sampled workload, every simulation's
	// full-fidelity per-core CPIs.
	Reference map[string][]float64 `json:"reference,omitempty"`
	// Accuracy is the 1/sampleDen estimate's error against full fidelity
	// over this workload's simulations at this seed (see accuracy).
	Accuracy accuracyPin `json:"accuracy"`
}

// accuracyPin is one seed's sampled-estimate error.
type accuracyPin struct {
	CPIErrPct float64 `json:"cpi_err_pct"`
	WSErrPP   float64 `json:"ws_err_pp"`
}

func pinPath(root string, seed uint64) string {
	return filepath.Join(root, "perfbench", "pins", fmt.Sprintf("seed-%02d.json", seed))
}

func loadPins(root string, seed uint64) (*pinFile, error) {
	b, err := os.ReadFile(pinPath(root, seed))
	if err != nil {
		return nil, fmt.Errorf("reading pins: %w", err)
	}
	var p pinFile
	if err := json.Unmarshal(b, &p); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", pinPath(root, seed), err)
	}
	return &p, nil
}

// stream is one arena the set-up phase persists, with its 1/sampleDen
// sub-arena.
type stream struct {
	key   string
	gen   trace.Generator
	spec  *trace.SampleSpec
	need  uint64 // parent references
	sneed uint64 // sub-arena references
}

// planStreams enumerates, with fresh generators, every stream the
// workload's simulations read at seed, deduplicated by key (the harness
// shares one arena per key across simulations), longest first.
func planStreams(w *benchWorkload, seed uint64, pin *workloadPin) ([]stream, error) {
	var out []stream
	seen := map[string]bool{}
	for _, s := range w.sims(w.config(seed, sampleDen, 1)) {
		gens, _, err := s.generators()
		if err != nil {
			return nil, err
		}
		spec, err := s.cfg.Params(s.cores()).SampleSpec()
		if err != nil {
			return nil, err
		}
		for i, g := range gens {
			key := streamKey(s.kind, i, g.Name(), s.cfg)
			if seen[key] {
				continue
			}
			seen[key] = true
			st := stream{key: key, gen: g, spec: spec}
			if pin != nil {
				st.need, st.sneed = pin.Needs[key], pin.Sampled[key]
			}
			out = append(out, st)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].need > out[j].need })
	return out, nil
}

// setupStats is one set-up phase.
type setupStats struct {
	wallS      float64
	synthRefs  uint64
	synthS     float64 // summed over workers
	filterRefs uint64
	filterS    float64
	saveS      float64
	saves      int
	bytes      int64 // packed bytes persisted
}

// setupHeadroom is how many references past its pinned need set-up
// synthesises for each arena. The pinned needs count whole replay batches,
// so a host-side change that reads further ahead (a larger batch or burst)
// still finds every reference in the store, while a change in what the
// simulations consume grows an arena and fails the pass.
const setupHeadroom = 4096

// setup builds a fresh arena store in dir holding the streams the
// workload's timed phase reads: each parent arena is synthesised to its
// pinned length plus setupHeadroom, the sampled workload's sub-arenas are
// filtered from their parents to theirs, and everything is saved, on a
// pool of workers.
func setup(w *benchWorkload, seed uint64, pin *workloadPin, dir string, workers int) (setupStats, error) {
	start := time.Now()
	streams, err := planStreams(w, seed, pin)
	if err != nil {
		return setupStats{}, err
	}
	st := store.New(dir)
	var mu sync.Mutex
	var tot setupStats
	sem := make(chan struct{}, workers)
	err = harness.ForEach(len(streams), func(i int) error {
		sem <- struct{}{}
		defer func() { <-sem }()
		s := streams[i]
		var one setupStats
		a := trace.NewArena(s.gen)
		t := time.Now()
		a.Extend(s.need + setupHeadroom)
		one.synthS = time.Since(t).Seconds()
		one.synthRefs = a.Refs()
		if s.sneed > 0 {
			sub := trace.NewArena(s.spec.View(a.NewReplayer()))
			t = time.Now()
			sub.Extend(s.sneed + setupHeadroom)
			one.filterS = time.Since(t).Seconds()
			one.filterRefs = a.Refs()
			t = time.Now()
			if err := st.Save(sampledKey(s.key, s.spec), sub); err != nil {
				return err
			}
			one.saveS += time.Since(t).Seconds()
			one.bytes += sub.Bytes()
		}
		t = time.Now()
		if err := st.Save(s.key, a); err != nil {
			return err
		}
		one.saveS += time.Since(t).Seconds()
		one.bytes += a.Bytes()
		mu.Lock()
		tot.synthRefs += one.synthRefs
		tot.synthS += one.synthS
		tot.filterRefs += one.filterRefs
		tot.filterS += one.filterS
		tot.saveS += one.saveS
		tot.bytes += one.bytes
		mu.Unlock()
		return nil
	})
	if err != nil {
		return setupStats{}, fmt.Errorf("set-up: %w", err)
	}
	tot.saves = int(st.Stats().Saves)
	tot.wallS = time.Since(start).Seconds()
	return tot, nil
}
