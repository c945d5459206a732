package experiments

import (
	"fmt"

	"ascc/internal/harness"
	"ascc/internal/workload"
)

// scaleoutCores are the machine widths the scaling study sweeps. The paper
// evaluates 4 and 8 cores; the extension replicates its first Table 1 mix
// out to the 64-core holder-mask limit (workload.ExtendMix).
var scaleoutCores = []int{4, 16, 32, 64}

// Scaleout measures how the simulator scales with core count: the first
// 4-app mix of Table 1 is widened by cyclic replication to 4/16/32/64 cores
// and run under AVGCC, reporting per-width aggregate CPI and the coherence
// fabric's probe count (coherence directory lookups; the broadcast A/B at
// the same call sites is internal/cachesim's BenchmarkCoherenceProbe).
// Each width overrides Config.Cores for its own runs, so the experiment
// sweeps the same widths no matter what -cores the suite was invoked with.
// The widths run one after another, not as a collect fan-out: perfbench's
// scaleout64 workload, which times them, is one simulation at a time.
func Scaleout(cfg harness.Config) (Result, error) {
	mix := workload.FourAppMixes()[0]
	res := Result{ID: "scaleout"}
	res.Table = harness.Table{
		Title:  "Scaling the first Table 1 mix by cyclic replication (AVGCC, coherence directory)",
		Header: []string{"cores", "instructions", "agg CPI", "coherence probes", "probes/Kinst"},
		// The note's second clause is stale (perfbench's scaleout64 times
		// the widths; Values holds no wall-clock), but its text is pinned
		// by testdata/scaleout.golden.csv: amend the two together.
		Notes: []string{
			"probes count holder-mask queries over warmup+measure; wall-clock is in Values, not here",
		},
	}
	for _, cores := range scaleoutCores {
		c := cfg
		c.Cores = cores
		run, err := harness.SharedRunner(c).RunMix(mix, harness.PAVGCC)
		if err != nil {
			return Result{}, err
		}
		var instr uint64
		for _, cs := range run.Cores {
			instr += cs.Instructions
		}
		cpi, probes := aggCPI(run), run.CoherenceProbes
		res.Table.Rows = append(res.Table.Rows, []string{
			fmt.Sprintf("%d", cores),
			fmt.Sprintf("%d", instr),
			harness.F2(cpi),
			fmt.Sprintf("%d", probes),
			harness.F2(float64(probes) / float64(instr) * 1000),
		})
		res.set(fmt.Sprintf("cpi/%dcores", cores), cpi)
		res.set(fmt.Sprintf("probes/%dcores", cores), float64(probes))
	}
	return res, nil
}
