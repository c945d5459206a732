// Package ascc is a from-scratch reproduction of "Adaptive Set-Granular
// Cooperative Caching" (Rolán, Fraguela, Doallo — HPCA 2012): a
// trace-driven chip-multiprocessor cache simulator with private per-core
// L1/L2 hierarchies, MESI coherence answered by a directory, synthetic SPEC
// CPU2006-like workload models, and the full family of cooperative
// last-level-cache policies the paper evaluates — ASCC, AVGCC, QoS-AVGCC,
// DSR, DSR+DIP, ECC, CC and every internal ablation.
//
// # Quick start
//
//	cfg := ascc.DefaultConfig()
//	runner := ascc.NewRunner(cfg)
//	baseline, _ := runner.RunMix([]int{445, 456}, ascc.Baseline)
//	avgcc, _ := runner.RunMix([]int{445, 456}, ascc.AVGCC)
//	fmt.Printf("AVGCC CPIs: %.2f vs baseline %.2f\n",
//		avgcc.Cores[0].CPI(), baseline.Cores[0].CPI())
//
// Benchmarks are referred to by their SPEC CPU2006 numbers (Table 3 of the
// paper): 401 bzip2, 429 mcf, 433 milc, 444 namd, 445 gobmk, 450 soplex,
// 456 hmmer, 458 sjeng, 462 libquantum, 470 lbm, 471 omnetpp, 473 astar,
// 482 sphinx3.
//
// # Reproducing the paper
//
// Every table and figure of the evaluation has a regenerator:
//
//	res, err := ascc.RunExperiment(ascc.DefaultConfig(), "fig8")
//	fmt.Println(res.Table)
//
// See DESIGN.md for the experiment index and EXPERIMENTS.md for
// paper-versus-measured results. The cmd/asccbench tool exposes the same
// runners on the command line.
package ascc

import (
	"ascc/internal/cmp"
	"ascc/internal/cost"
	"ascc/internal/experiments"
	"ascc/internal/harness"
	"ascc/internal/metrics"
	"ascc/internal/trace"
	"ascc/internal/workload"
)

// Config fixes the experimental conditions: geometry scale, instruction
// budgets, seed, prefetcher, LLC size override. See harness.Config.
type Config = harness.Config

// DefaultConfig returns the standard fast configuration: geometry scale 8,
// 1M warmup + 3M measured instructions per core, seed 1.
func DefaultConfig() Config { return harness.DefaultConfig() }

// PaperScaleConfig returns the paper's absolute geometry (scale 1) with a
// larger instruction budget. Runs are roughly 100x slower than the default
// configuration; results match the default's shape.
func PaperScaleConfig() Config {
	cfg := harness.DefaultConfig()
	cfg.Scale = 1
	cfg.WarmupInstr = 20_000_000
	cfg.MeasureInstr = 60_000_000
	return cfg
}

// ParseSampleRatio maps a set-sampling ratio ("1/8", "off", "") to the
// denominator for Config.SampleDen (0 = full fidelity) — the asccbench
// -sample flag's parser. See DESIGN.md §16.
func ParseSampleRatio(v string) (int, error) { return trace.ParseSampleRatio(v) }

// Policy identifies one of the reproduced cache-management designs.
type Policy = harness.PolicyID

// The reproduced designs. Baseline is the plain private-LLC configuration
// every improvement is measured against; ASCC/AVGCC/QoSAVGCC are the
// paper's contributions; the rest are the comparison points and ablations.
const (
	Baseline Policy = harness.PBaseline
	CC       Policy = harness.PCC
	DSR      Policy = harness.PDSR
	DSRDIP   Policy = harness.PDSRDIP
	DSR3S    Policy = harness.PDSR3S
	ECC      Policy = harness.PECC
	LRS      Policy = harness.PLRS
	LMS      Policy = harness.PLMS
	GMS      Policy = harness.PGMS
	LMSBIP   Policy = harness.PLMSBIP
	GMSSABIP Policy = harness.PGMSSABIP
	ASCC     Policy = harness.PASCC
	ASCC2S   Policy = harness.PASCC2S
	AVGCC    Policy = harness.PAVGCC
	QoSAVGCC Policy = harness.PQoSAVGCC
)

// Policies lists every reproduced design.
func Policies() []Policy {
	return []Policy{Baseline, CC, DSR, DSRDIP, DSR3S, ECC, LRS, LMS, GMS,
		LMSBIP, GMSSABIP, ASCC, ASCC2S, AVGCC, QoSAVGCC}
}

// Results holds per-core statistics of one simulation (CPI, MPKI, AML,
// spill counts, off-chip accesses, ...).
type Results = cmp.Results

// CoreStats is one core's measurements.
type CoreStats = cmp.CoreStats

// System is the simulated chip-multiprocessor; build one with Runner.Build
// to drive a simulation directly (benchmarks, instrumentation), or use
// Runner.Run or Runner.RunMix for the memoised path. A built system is the
// caller's; System.Release hands its cache storage to later builds.
type System = cmp.System

// Spec describes one simulation for Runner.Run, Runner.RunSystem and
// Runner.Build; its zero Kind is a multiprogrammed mix on private LLCs.
type Spec = harness.Spec

// Runner executes workload mixes under policies. It is safe for concurrent
// use: simulations fan out across the configuration's worker pool
// (Config.Parallel slots) and a singleflight cache memoises every Run, so
// the expensive single-application baselines the weighted-speedup metrics
// normalise against are simulated exactly once.
type Runner = harness.Runner

// NewRunner builds a Runner.
func NewRunner(cfg Config) *Runner { return harness.NewRunner(cfg) }

// Pool bounds how many simulations run at once and shares memoised runners
// across experiments. Attach one with Config.WithPool to reuse baseline
// simulations across several RunExperiment calls; results are bit-identical
// at every pool size.
type Pool = harness.Pool

// DefaultArenaStoreDir returns the conventional root of the persistent
// arena store (~/.cache/ascc/arenas); set Config.ArenaStoreDir to it — or
// any other directory — to replay packed workload streams across
// processes instead of re-synthesising them (DESIGN.md §14).
func DefaultArenaStoreDir() (string, error) { return harness.DefaultArenaStoreDir() }

// NewPool builds a worker pool with n slots; n <= 0 uses all CPUs.
func NewPool(n int) *Pool { return harness.NewPool(n) }

// ExperimentResult is one reproduced table or figure: a renderable text
// table plus headline values.
type ExperimentResult = experiments.Result

// RunExperiment reproduces one of the paper's tables or figures by id
// ("fig1".."fig11", "table1", "table4", "table5", "shared", "mt",
// "prefetch", "spills", "limited"), or the design-choice "ablation" study
// of DESIGN.md §6. See ExperimentIDs.
func RunExperiment(cfg Config, id string) (ExperimentResult, error) {
	return experiments.ByID(cfg, id)
}

// RunAllExperiments reproduces the full evaluation in paper order.
func RunAllExperiments(cfg Config) ([]ExperimentResult, error) {
	return experiments.All(cfg)
}

// ExperimentIDs lists the reproducible artefacts in paper order.
func ExperimentIDs() []string { return experiments.IDs() }

// Benchmarks returns the 13 SPEC CPU2006 models of Table 3.
func Benchmarks() []workload.Profile { return workload.Profiles() }

// BenchmarkByID resolves a SPEC number (e.g. 433) to its model.
func BenchmarkByID(id int) (workload.Profile, error) { return workload.ByID(id) }

// TwoAppMixes returns the fourteen 2-application workloads of the
// evaluation; FourAppMixes the six 4-application workloads of Table 1.
func TwoAppMixes() [][]int  { return workload.TwoAppMixes() }
func FourAppMixes() [][]int { return workload.FourAppMixes() }

// MixName formats a mix the way the paper writes it ("445+401+444+456").
func MixName(mix []int) string { return workload.MixName(mix) }

// ExtendMix widens a mix to cores slots by cyclic replication — the same
// widening Config.Cores applies inside the runner. A no-op when cores does
// not exceed the mix length.
func ExtendMix(mix []int, cores int) []int { return workload.ExtendMix(mix, cores) }

// WeightedSpeedup computes sum(IPC_i/IPCalone_i) — the paper's performance
// metric (Snavely & Tullsen).
func WeightedSpeedup(cpis, aloneCPIs []float64) float64 {
	return metrics.WeightedSpeedup(cpis, aloneCPIs)
}

// HMeanFairness computes the harmonic mean of normalised IPCs — the
// paper's fairness metric (Luo et al.).
func HMeanFairness(cpis, aloneCPIs []float64) float64 {
	return metrics.HMeanFairness(cpis, aloneCPIs)
}

// CPIs extracts the per-core CPI vector from a run.
func CPIs(r Results) []float64 { return metrics.CPIs(r) }

// TraceSpec describes one externally supplied trace file (binary .trc or
// .csv) and its core's timing parameters; see Runner.RunTraces.
type TraceSpec = harness.TraceSpec

// SeedStats summarises a metric across independent seeds (mean, stddev,
// min/max, 95% CI); see Runner.SpeedupOverSeeds.
type SeedStats = harness.SeedStats

// StorageCost returns the Table 5 storage report for a design name
// ("ASCC", "AVGCC", "QoS-AVGCC" or "DSR") at the paper's geometry.
func StorageCost(design string) (cost.Report, error) {
	g := cost.PaperGeometry()
	switch design {
	case "ASCC":
		return cost.ASCCReport(g), nil
	case "AVGCC":
		return cost.AVGCCReport(g, 0), nil
	case "QoS-AVGCC":
		return cost.QoSAVGCCReport(g), nil
	case "DSR":
		return cost.DSRReport(g), nil
	}
	return cost.Report{}, errUnknownDesign(design)
}

type errUnknownDesign string

func (e errUnknownDesign) Error() string {
	return "ascc: unknown design " + string(e) + ` (want "ASCC", "AVGCC", "QoS-AVGCC" or "DSR")`
}
