package experiments

import (
	"ascc/internal/harness"
	"ascc/internal/metrics"
	"ascc/internal/policies"
	"ascc/internal/workload"
)

// variant is a caller-built point of the ASCC design space and the display
// name it runs under.
type variant struct {
	name string
	cfg  policies.ASCCConfig
}

// variantGains runs each variant over the four-application mixes and
// returns its weighted-speedup improvements, indexed [variant][mix]. The
// runner memoises variants by configuration, so one equal to a registry
// design, or to another variant, shares its simulation.
func variantGains(cfg harness.Config, vs []variant) ([][]float64, error) {
	mixes := workload.FourAppMixes()
	gains, err := gainGrid(harness.SharedRunner(cfg), mixes, len(vs), func(mix []int, v int) harness.Spec {
		return harness.Spec{Mix: mix, Policy: harness.PolicyID(vs[v].name), ASCC: &vs[v].cfg}
	})
	if err != nil {
		return nil, err
	}
	imps := make([][]float64, len(vs))
	for v := range imps {
		imps[v] = groupWS(gains, mixGroup{4, mixes, 0}, len(vs), v)
	}
	return imps, nil
}

// asccBase is the published ASCC configuration (policies.NewASCC) the
// variant sweeps start from; the runner fills in geometry and seed.
var asccBase = policies.ASCCConfig{Capacity: policies.CapacitySABIP, Epsilon: 1.0 / 32.0, Swap: true}

// asccVariant is one row of a variant sweep: a change to the published
// ASCC configuration, run as the policy named policy (label when empty).
type asccVariant struct {
	label, policy string
	edit          func(c *policies.ASCCConfig, ways int)
}

// asccVariantTable runs every variant over the 4-core mixes and tabulates
// its weighted-speedup geomean.
func asccVariantTable(cfg harness.Config, id, title, note string, variants []asccVariant) (Result, error) {
	_, ways := cfg.L2Geometry()
	vs := make([]variant, len(variants))
	for i, v := range variants {
		vs[i] = variant{name: v.policy, cfg: asccBase}
		if vs[i].name == "" {
			vs[i].name = v.label
		}
		v.edit(&vs[i].cfg, ways)
	}
	imps, err := variantGains(cfg, vs)
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
