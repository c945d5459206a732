package main

import (
	"fmt"
	"sort"

	"ascc/internal/experiments"
	"ascc/internal/harness"
	"ascc/internal/workload"
)

// Instruction budgets. The golden budget is the one the committed golden
// tables (internal/experiments/testdata) were generated with, so every
// workload run at it can be checked byte-for-byte at the default seed; the
// default budget is harness.DefaultConfig's.
const (
	goldenWarmup  = 120_000
	goldenMeasure = 300_000
)

// sampleDen is the set-sampling denominator of the sampled workload and of
// the accuracy shadow runs (asccbench -sample 1/8).
const sampleDen = 8

// sim is one simulation a workload performs: a multiprogrammed mix (or a
// single-application alone run), a multithreaded profile, or one scaleout
// width, under one policy, on the runner configuration cfg.
type sim struct {
	name   string
	kind   string // "mix" or "mt"
	mix    []int  // mix kinds: the (already widened) benchmark ids
	mt     string // mt kind: profile name
	policy harness.PolicyID
	cfg    harness.Config
	// direct marks the scaleout widths: the experiment builds and runs the
	// system itself (Runner.NewMixSystem), so its outcome is read from the
	// table instead of the runner's memo.
	direct bool
	// base names the simulation this one's improvement is measured
	// against (empty for baselines), and alone the single-application runs
	// that weighted speedup normalises by (mixes only).
	base  string
	alone []string
}

// experiment is one table a workload assembles.
type experiment struct {
	id string
	fn func(harness.Config) (experiments.Result, error)
}

// benchWorkload is one named workload of BENCHMARK.json.
type benchWorkload struct {
	name string
	// base returns the suite configuration at a simulation seed; den > 1
	// overlays set sampling (the timed phase of a sampled workload, the
	// accuracy shadow of a full-fidelity one).
	base func(seed uint64) harness.Config
	exps []experiment
	// sims enumerates every simulation the experiments run on cfg.
	sims func(cfg harness.Config) []sim
	// sampled is true when the timed phase itself runs at 1/sampleDen; the
	// accuracy metrics then compare against pinned full-fidelity results.
	// Full-fidelity workloads instead run one untimed shadow pass at
	// 1/sampleDen after the timed phase and compare it against the timed
	// results.
	sampled bool
	// golden lists experiment ids whose CSV must equal the committed golden
	// table at the default seed.
	golden []string
}

var workloads = []benchWorkload{
	{
		name: "paper4-full",
		base: goldenBudget,
		exps: []experiment{{"fig4", experiments.Fig4}, {"fig5", experiments.Fig5}, {"fig8", experiments.Fig8}, {"fig9", experiments.Fig9}},
		sims: func(cfg harness.Config) []sim {
			return mixSims(cfg, workload.FourAppMixes(), []harness.PolicyID{
				harness.PLRS, harness.PLMS, harness.PGMS, harness.PLMSBIP, harness.PGMSSABIP,
				harness.PDSR, harness.PASCC, harness.PASCC2S, harness.PDSR3S,
				harness.PDSRDIP, harness.PECC, harness.PAVGCC,
			})
		},
		golden: []string{"fig8", "fig9"},
	},
	{
		name: "paper2-sampled",
		base: func(seed uint64) harness.Config {
			cfg := harness.DefaultConfig()
			cfg.Seed = seed
			return cfg
		},
		exps: []experiment{{"fig7", experiments.Fig7}, {"fig11", experiments.Fig11}},
		sims: func(cfg harness.Config) []sim {
			two := mixSims(cfg, workload.TwoAppMixes(), []harness.PolicyID{
				harness.PDSR, harness.PDSRDIP, harness.PECC, harness.PASCC, harness.PAVGCC, harness.PQoSAVGCC,
			})
			four := mixSims(cfg, workload.FourAppMixes(), []harness.PolicyID{harness.PAVGCC, harness.PQoSAVGCC})
			return dedupe(append(two, four...))
		},
		sampled: true,
	},
	{
		name: "mt4-shared",
		base: goldenBudget,
		exps: []experiment{{"mt", experiments.Multithreaded}},
		sims: func(cfg harness.Config) []sim {
			cfg.L2SizeBytes = 512 * 1024 // what experiments.Multithreaded sets
			var out []sim
			for _, p := range workload.MTProfiles() {
				base := fmt.Sprintf("mt:%s:%s", p.Name, harness.PBaseline)
				out = append(out, sim{name: base, kind: "mt", mt: p.Name, policy: harness.PBaseline, cfg: cfg})
				for _, id := range []harness.PolicyID{harness.PDSR, harness.PECC, harness.PASCC, harness.PAVGCC} {
					out = append(out, sim{name: fmt.Sprintf("mt:%s:%s", p.Name, id), kind: "mt", mt: p.Name, policy: id, cfg: cfg, base: base})
				}
			}
			return out
		},
	},
	{
		name: "scaleout64",
		base: goldenBudget,
		exps: []experiment{{"scaleout", experiments.Scaleout}},
		sims: func(cfg harness.Config) []sim {
			var out []sim
			for _, w := range []int{4, 16, 32, 64} { // experiments.Scaleout's widths
				c := cfg
				c.Cores = w
				s := sim{
					name: fmt.Sprintf("scaleout:%d", w), kind: "mix", policy: harness.PAVGCC, cfg: c, direct: true,
					mix: workload.ExtendMix(workload.FourAppMixes()[0], w),
				}
				if len(out) > 0 {
					s.base = out[0].name
				}
				out = append(out, s)
			}
			return out
		},
		golden: []string{"scaleout"},
	},
}

func workloadByName(name string) (*benchWorkload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// goldenBudget is the golden-table configuration at a seed.
func goldenBudget(seed uint64) harness.Config {
	cfg := harness.DefaultConfig()
	cfg.WarmupInstr = goldenWarmup
	cfg.MeasureInstr = goldenMeasure
	cfg.Seed = seed
	return cfg
}

// config returns the workload's runner configuration at a simulation seed:
// sampled at 1/den when den > 1, with a worker pool of width workers.
func (w *benchWorkload) config(seed uint64, den, workers int) harness.Config {
	cfg := w.base(seed)
	cfg.SampleDen = den
	cfg.Parallel = workers
	cfg.TraceCache = true
	return cfg
}

// timedDen is the sampling denominator of the timed phase.
func (w *benchWorkload) timedDen() int {
	if w.sampled {
		return sampleDen
	}
	return 0
}

// mixSims lists every simulation a speedup table over mixes and pols
// performs: each mix under the baseline and every policy, plus the
// single-application alone runs that weighted speedup normalises against.
func mixSims(cfg harness.Config, mixes [][]int, pols []harness.PolicyID) []sim {
	var out []sim
	alone := map[int]bool{}
	for _, mix := range mixes {
		names := make([]string, len(mix))
		for i, b := range mix {
			names[i] = aloneName(b)
			alone[b] = true
		}
		base := mixSimName(mix, harness.PBaseline)
		out = append(out, sim{name: base, kind: "mix", mix: mix, policy: harness.PBaseline, cfg: cfg})
		for _, id := range pols {
			out = append(out, sim{name: mixSimName(mix, id), kind: "mix", mix: mix, policy: id, cfg: cfg, base: base, alone: names})
		}
	}
	ids := make([]int, 0, len(alone))
	for b := range alone {
		ids = append(ids, b)
	}
	sort.Ints(ids)
	for _, b := range ids {
		out = append(out, sim{name: aloneName(b), kind: "mix", mix: []int{b}, policy: harness.PBaseline, cfg: cfg})
	}
	return out
}

func mixSimName(mix []int, id harness.PolicyID) string {
	return fmt.Sprintf("mix:%s:%s", workload.MixName(mix), id)
}

func aloneName(b int) string { return fmt.Sprintf("alone:%d", b) }

// dedupe drops repeated simulations (by name), keeping the first.
func dedupe(sims []sim) []sim {
	seen := map[string]bool{}
	out := sims[:0]
	for _, s := range sims {
		if !seen[s.name] {
			seen[s.name] = true
			out = append(out, s)
		}
	}
	return out
}
