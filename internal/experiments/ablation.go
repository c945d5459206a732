package experiments

import (
	"ascc/internal/cmp"
	"ascc/internal/coop"
	"ascc/internal/harness"
	"ascc/internal/metrics"
	"ascc/internal/policies"
	"ascc/internal/workload"
)

// variantGains fans the (variant × four-application mix) grid out on the
// worker pool and returns each cell's weighted-speedup improvement over the
// mix's baseline, indexed [variant][mix]. Each cell runs the mix under the
// policy mk(v, cores) builds for variant v. RunMixWith is uncached because
// that policy is caller-owned state, so the caller also owns the -cores
// widening: the mix is extended first and the policy sized from the widened
// length (RunMix and AloneCPIs widen identically). The baseline and alone
// runs still dedupe through the runner's memo.
func variantGains(cfg harness.Config, variants int, mk func(v, cores int) coop.Policy) ([][]float64, error) {
	r := harness.SharedRunner(cfg)
	mixes := workload.FourAppMixes()
	gains, err := collect(variants*len(mixes), func(k int) (gain, error) {
		v, mix := k/len(mixes), workload.ExtendMix(mixes[k%len(mixes)], cfg.Cores)
		return improvement(r, mix, func() (cmp.Results, error) { return r.RunMixWith(mix, mk(v, len(mix))) })
	})
	if err != nil {
		return nil, err
	}
	imps := make([][]float64, variants)
	for v := range imps {
		imps[v] = make([]float64, len(mixes))
		for mi := range mixes {
			imps[v][mi] = gains[v*len(mixes)+mi].ws
		}
	}
	return imps, nil
}

// asccBase is the published ASCC configuration the variant sweeps start
// from.
func asccBase(cores, sets, ways int, seed uint64) policies.ASCCConfig {
	return policies.ASCCConfig{
		Caches: cores, Sets: sets, Assoc: ways,
		Capacity: policies.CapacitySABIP, Epsilon: 1.0 / 32.0,
		Swap: true, Seed: seed,
	}
}

// asccVariant is one row of a variant sweep: a change to the published
// ASCC configuration, run as the policy named policy (label when empty).
type asccVariant struct {
	label, policy string
	edit          func(c *policies.ASCCConfig, ways int)
}

// asccVariantTable runs every variant over the 4-core mixes and tabulates
// its weighted-speedup geomean.
func asccVariantTable(cfg harness.Config, id, title, note string, variants []asccVariant) (Result, error) {
	sets, ways := cfg.L2Geometry()
	imps, err := variantGains(cfg, len(variants), func(v, cores int) coop.Policy {
		c := asccBase(cores, sets, ways, cfg.Seed)
		variants[v].edit(&c, ways)
		name := variants[v].policy
		if name == "" {
			name = variants[v].label
		}
		return policies.NewASCCVariant(name, c)
	})
	if err != nil {
		return Result{}, err
	}
	res := Result{ID: id}
	res.Table = harness.Table{
		Title:  title,
		Header: []string{"variant", "speedup improvement"},
		Notes:  []string{note},
	}
	for vi, v := range variants {
		g := metrics.GeomeanImprovement(imps[vi])
		res.Table.Rows = append(res.Table.Rows, []string{v.label, harness.Pct(g)})
		res.set(v.label, g)
	}
	return res, nil
}

// Ablation studies the implementation choices DESIGN.md §6 makes where the
// paper is silent: guest placement (by-reuse vs always-MRU vs always-LRU-1
// vs always-LRU), dead-line guest admission, and the §3.2 swap. It runs
// ASCC variants over the 4-core mixes and reports weighted-speedup
// geomeans.
func Ablation(cfg harness.Config) (Result, error) {
	return asccVariantTable(cfg, "ablation",
		"Design-choice ablations on ASCC (4 cores, geomean over the Table 1 mixes)",
		"ablates the choices of DESIGN.md §6 the paper leaves open",
		[]asccVariant{
			{"ASCC (by-reuse guests)", "", func(*policies.ASCCConfig, int) {}},
			{"guests always MRU", "", func(c *policies.ASCCConfig, _ int) { c.SpillPlacement = policies.SpillMRU }},
			{"guests always LRU-1", "", func(c *policies.ASCCConfig, _ int) { c.SpillPlacement = policies.SpillLRU1 }},
			{"guests always LRU", "", func(c *policies.ASCCConfig, _ int) { c.SpillPlacement = policies.SpillLRU }},
			{"no swap", "", func(c *policies.ASCCConfig, _ int) { c.Swap = false }},
			{"no capacity response", "", func(c *policies.ASCCConfig, _ int) { c.Capacity = policies.CapacityNone }},
			{"spill any victim", "", func(c *policies.ASCCConfig, _ int) { c.SpillAnyVictim = true }},
		})
}

// FutureWork explores the paper's closing research directions ("tuning the
// size and limits of saturation counters, as well as exploring other
// metrics"): ASCC with saturation ceilings from K+2 to 4K-1, and ASCC with
// the miss-ratio EWMA metric instead of saturating counters.
func FutureWork(cfg harness.Config) (Result, error) {
	return asccVariantTable(cfg, "futurework",
		"Future work (§9): counter limits and alternative metrics (4 cores)",
		"the paper proposes tuning the saturation-counter limits and exploring other metrics",
		[]asccVariant{
			{"SSL ceiling K+2", "ASCC-maxK+2", func(c *policies.ASCCConfig, k int) { c.SSLMax = k + 2 }},
			{"SSL ceiling 3K/2", "ASCC-max3K/2", func(c *policies.ASCCConfig, k int) { c.SSLMax = k + k/2 }},
			{"SSL ceiling 2K-1 (paper)", "ASCC", func(*policies.ASCCConfig, int) {}},
			{"SSL ceiling 4K-1", "ASCC-max4K-1", func(c *policies.ASCCConfig, k int) { c.SSLMax = 4*k - 1 }},
			{"EWMA miss-ratio metric", "ASCC-EWMA", func(c *policies.ASCCConfig, _ int) { c.EWMA = true }},
		})
}
