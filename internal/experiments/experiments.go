// Package experiments reproduces every table and figure of the paper's
// evaluation. Each Fig*/Table* function runs the required simulations
// through a harness.Runner and returns a Result holding a renderable text
// table plus the headline numbers (for tests, benches and EXPERIMENTS.md).
//
// Every simulation-backed experiment has one shape: a single fan-out over
// the worker pool computes each cell of a preallocated grid (collect), and
// the table is then assembled from that grid by index. Results are
// therefore identical at every Config.Parallel setting.
//
// The mapping from experiment to paper artefact is indexed in DESIGN.md §4.
package experiments

import (
	"fmt"

	"ascc/internal/harness"
	"ascc/internal/workload"
)

// Result is one reproduced table or figure.
type Result struct {
	ID     string // "fig7", "table1", ...
	Table  harness.Table
	Values map[string]float64 // headline numbers, e.g. "geomean/AVGCC"
}

// set records a headline value.
func (r *Result) set(key string, v float64) {
	if r.Values == nil {
		r.Values = map[string]float64{}
	}
	r.Values[key] = v
}

// registry lists every experiment in paper order. All runs it, ByID looks
// ids up in it and IDs reads them from it.
var registry = []struct {
	id  string
	run func(harness.Config) (Result, error)
}{
	{"fig1", Fig1}, {"fig2", Fig2}, {"fig4", Fig4}, {"fig5", Fig5},
	{"table1", Table1}, {"fig7", Fig7}, {"fig8", Fig8}, {"fig9", Fig9},
	{"shared", SharedLLC}, {"fig10", Fig10}, {"mt", Multithreaded},
	{"prefetch", Prefetcher}, {"table4", Table4}, {"spills", SpillBehavior},
	{"limited", LimitedCounters}, {"fig11", Fig11}, {"table5", Table5},
	{"ablation", Ablation}, {"futurework", FutureWork},
	{"scaleout", Scaleout}, {"sampling", Sampling},
}

// All runs the complete reproduction suite in paper order. The experiments
// execute concurrently on one shared worker pool of cfg.Parallel slots
// (Config.Parallel = 1 recovers the sequential suite), sharing memoised
// alone-CPI and baseline simulations wherever their configurations
// coincide. The returned slice is always in paper order and bit-identical
// to a sequential run: every simulation is deterministic in (config,
// workload, policy, seed) and every aggregation collects by index.
func All(cfg harness.Config) ([]Result, error) {
	cfg = cfg.EnsurePool()
	out, err := collect(len(registry), func(i int) (Result, error) {
		return registry[i].run(cfg)
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return out, nil
}

// ByID runs a single experiment by its identifier. The experiment's
// simulations fan out on the configuration's worker pool (Config.Parallel
// slots; attach a shared pool with Config.WithPool to reuse baseline runs
// across several ByID calls).
func ByID(cfg harness.Config, id string) (Result, error) {
	for _, e := range registry {
		if e.id == id {
			return e.run(cfg.EnsurePool())
		}
	}
	return Result{}, fmt.Errorf("experiments: unknown experiment %q (see DESIGN.md §4)", id)
}

// IDs lists the experiment identifiers in paper order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}

// collect runs cell(0), ..., cell(n-1) concurrently on the worker pool
// (harness.ForEach) and returns the cells by index, so a table assembled
// from them does not depend on completion order.
func collect[T any](n int, cell func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := harness.ForEach(n, func(i int) error {
		var err error
		out[i], err = cell(i)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// gainGrid fans the (mix × column) grid out on r's pool and returns each
// cell's Gain over its mix's baseline, indexed mix*cols + column. Cell
// (m, c) runs spec(mix, c), where mix is mixes[m] widened to the
// configured core count, as a Spec runs its mix as given.
func gainGrid(r *harness.Runner, mixes [][]int, cols int, spec func(mix []int, c int) harness.Spec) ([]harness.Gain, error) {
	return collect(len(mixes)*cols, func(k int) (harness.Gain, error) {
		mix := workload.ExtendMix(mixes[k/cols], r.Cfg.Cores)
		return r.Gain(mix, spec(mix, k%cols))
	})
}

// policyGains is the gainGrid of the mixes under registry policies.
func policyGains(r *harness.Runner, mixes [][]int, pols []harness.PolicyID) ([]harness.Gain, error) {
	return gainGrid(r, mixes, len(pols), func(mix []int, c int) harness.Spec {
		return harness.Spec{Mix: mix, Policy: pols[c]}
	})
}

// mixGroup is one of the paper's multiprogrammed mix sets, with the offset
// of its first mix in bothMixes.
type mixGroup struct {
	cores int
	mixes [][]int
	first int
}

// mixGroups returns the 2-core then the 4-core mix set. An experiment that
// covers both fans out over bothMixes and reads each group's cells back
// from its offset.
func mixGroups() []mixGroup {
	two := workload.TwoAppMixes()
	return []mixGroup{{2, two, 0}, {4, workload.FourAppMixes(), len(two)}}
}

// bothMixes is the 2-core mixes followed by the 4-core mixes.
func bothMixes() [][]int {
	return append(workload.TwoAppMixes(), workload.FourAppMixes()...)
}
