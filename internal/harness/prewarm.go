package harness

import (
	"fmt"
	"sort"

	"ascc/internal/trace"
	"ascc/internal/workload"
)

// prewarmStream is one arena the prewarmer will synthesise: its cache key,
// the generator that produces it, and how many references the
// configuration's runs will consume from it.
type prewarmStream struct {
	key  string
	gen  trace.Generator
	refs uint64
}

// prewarmRefs estimates how many references a run consumes from one
// stream: the instruction budget times the profile's reference rate, plus
// the replayer's extend-ahead margin so a real run never outruns the
// prewarmed prefix by a few batches.
func (r *Runner) prewarmRefs(refsPerKInstr float64) uint64 {
	instr := r.Cfg.WarmupInstr + r.Cfg.MeasureInstr
	return uint64(float64(instr)*refsPerKInstr/1000) + 32*1024
}

// prewarmStreams enumerates every distinct stream the experiment suite
// draws on under this configuration, deduplicated by arena key: it lists
// the suite's specs (the alone runs, the Figs. 1-2 single runs, the 2- and
// 4-app mixes widened as RunMix widens them, and the §6.3 MT workloads)
// and takes their streams from the source function the runs build from.
// The scaleout experiment's extra-wide replicas are not enumerated: their
// widths are chosen inside the experiment, so their arenas reach the store
// through eviction write-behind and FlushArenas on the first scaleout run.
func (r *Runner) prewarmStreams() ([]prewarmStream, error) {
	var specs []Spec
	for _, p := range workload.Profiles() {
		specs = append(specs, Spec{Mix: []int{p.ID}}, Spec{Kind: KindSingle, Mix: []int{p.ID}})
	}
	for _, mix := range append(workload.TwoAppMixes(), workload.FourAppMixes()...) {
		specs = append(specs, Spec{Mix: r.Cfg.extend(mix)})
	}
	for _, p := range workload.MTProfiles() {
		specs = append(specs, Spec{Kind: KindMT, Profile: p.Name, Threads: MTThreads})
	}

	var streams []prewarmStream
	seen := map[string]bool{}
	for _, s := range specs {
		kind, gens, profs, err := r.source(s)
		if err != nil {
			return nil, err
		}
		for i, g := range gens {
			key := r.arenaKey(kind, i, g.Name())
			if !seen[key] {
				seen[key] = true
				streams = append(streams, prewarmStream{key: key, gen: g, refs: r.prewarmRefs(profs[i].RefsPerKInstr)})
			}
		}
	}
	return streams, nil
}

// PrewarmArenas synthesises every reference-stream arena the experiment
// suite draws on under this configuration — in parallel, bounded by the
// worker pool — and persists them to the configured arena store, so
// subsequent processes (runs, sweeps, CI jobs) replay from mmap'd files
// instead of regenerating. It returns how many distinct streams were
// warmed. Requires the trace cache and a store (Config.ArenaStoreDir);
// asccbench -prewarm is the CLI entry.
func (r *Runner) PrewarmArenas() (int, error) {
	if r.arenas == nil {
		return 0, fmt.Errorf("harness: prewarm requires the trace cache (Config.TraceCache)")
	}
	if r.arenas.Store() == nil {
		return 0, fmt.Errorf("harness: prewarm requires a persistent arena store (Config.ArenaStoreDir)")
	}
	streams, err := r.prewarmStreams()
	if err != nil {
		return 0, err
	}
	// Longest first: the synthesis passes dominate wall clock, so keep the
	// big ones from starting last.
	sort.Slice(streams, func(i, j int) bool { return streams[i].refs > streams[j].refs })
	err = ForEach(len(streams), func(i int) error {
		r.pool.run(func() {
			// Get reads through to the store first: a prewarmed file only
			// re-extends when this configuration demands a longer prefix.
			r.arenas.Get(streams[i].key, streams[i].gen).Extend(streams[i].refs)
		})
		return nil
	})
	if err != nil {
		return 0, err
	}
	if err := r.FlushArenas(); err != nil {
		return 0, err
	}
	return len(streams), nil
}
