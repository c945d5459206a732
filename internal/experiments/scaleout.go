package experiments

import (
	"fmt"
	"time"

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
// fabric's probe count (set-sharded directory lookups; the broadcast A/B at
// the same call sites is internal/cachesim's BenchmarkCoherenceProbe). The
// table's columns are all deterministic in (config, seed); wall-clock per
// width — the one number that is not — goes into Values ("wall_ms/16") so
// EXPERIMENTS.md can quote it without perturbing golden CSVs.
//
// The sweep runs the widths one after another, NOT through harness.ForEach:
// concurrent widths would time each other's contention on the shared worker
// pool and the wall_ms figures would overstate per-width cost. (Under
// `-exp all` sibling experiments still run concurrently; a dedicated
// `-exp scaleout` invocation is the supported way to record clean timings.)
//
// Each width overrides Config.Cores for its own runs, so the experiment
// sweeps the same widths no matter what -cores the suite was invoked with.
func Scaleout(cfg harness.Config) (Result, error) {
	mix := workload.FourAppMixes()[0]
	type row struct {
		cores  int
		instr  uint64
		cpi    float64
		probes uint64
		wall   time.Duration
	}
	rows := make([]row, len(scaleoutCores))
	for i := range scaleoutCores {
		c := cfg
		c.Cores = scaleoutCores[i]
		r := harness.SharedRunner(c)
		// NewMixSystem + a direct Run instead of RunMix: the probe counter
		// lives on the system, which the memoised path does not hand back.
		sys, err := r.NewMixSystem(mix, harness.PAVGCC)
		if err != nil {
			return Result{}, err
		}
		start := time.Now()
		res := sys.ScaleSampled(sys.Run(c.WarmupInstr, c.MeasureInstr))
		wall := time.Since(start)
		var instr uint64
		var cycles float64
		for _, cs := range res.Cores {
			instr += cs.Instructions
			cycles += cs.Cycles
		}
		rows[i] = row{
			cores:  c.Cores,
			instr:  instr,
			cpi:    cycles / float64(instr),
			probes: sys.CoherenceProbes(),
			wall:   wall,
		}
	}

	res := Result{ID: "scaleout"}
	res.Table = harness.Table{
		Title:  "Scaling the first Table 1 mix by cyclic replication (AVGCC, set-sharded directory)",
		Header: []string{"cores", "instructions", "agg CPI", "coherence probes", "probes/Kinst"},
		Notes: []string{
			"probes count holder-mask queries over warmup+measure; wall-clock is in Values, not here",
		},
	}
	for _, rw := range rows {
		res.Table.Rows = append(res.Table.Rows, []string{
			fmt.Sprintf("%d", rw.cores),
			fmt.Sprintf("%d", rw.instr),
			harness.F2(rw.cpi),
			fmt.Sprintf("%d", rw.probes),
			harness.F2(float64(rw.probes) / float64(rw.instr) * 1000),
		})
		res.set(fmt.Sprintf("cpi/%dcores", rw.cores), rw.cpi)
		res.set(fmt.Sprintf("probes/%dcores", rw.cores), float64(rw.probes))
		res.set(fmt.Sprintf("wall_ms/%dcores", rw.cores), float64(rw.wall.Milliseconds()))
	}
	return res, nil
}
