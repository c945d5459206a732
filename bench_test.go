// Benchmarks that regenerate every table and figure of the paper's
// evaluation (one Benchmark per artefact — see DESIGN.md §4). Headline
// numbers are attached via b.ReportMetric so `go test -bench` output
// doubles as a compact reproduction report; EXPERIMENTS.md holds the
// paper-versus-measured discussion.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// One artefact:
//
//	go test -bench=BenchmarkFig8
package ascc_test

import (
	"testing"

	"ascc"
)

// benchConfig is the configuration used by the reproduction benches.
func benchConfig() ascc.Config { return ascc.DefaultConfig() }

// runExperiment executes one experiment per bench iteration and reports
// selected headline values as custom metrics.
func runExperiment(b *testing.B, id string, metricKeys ...string) {
	b.Helper()
	cfg := benchConfig()
	var last ascc.ExperimentResult
	for i := 0; i < b.N; i++ {
		res, err := ascc.RunExperiment(cfg, id)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, key := range metricKeys {
		if v, ok := last.Values[key]; ok {
			b.ReportMetric(v*100, "pct_"+key)
		}
	}
}

// BenchmarkFig1 regenerates Figure 1 (MPKI/CPI vs enabled ways).
func BenchmarkFig1(b *testing.B) {
	runExperiment(b, "fig1")
}

// BenchmarkFig2 regenerates Figure 2 (favored vs constant sets).
func BenchmarkFig2(b *testing.B) {
	runExperiment(b, "fig2")
}

// BenchmarkFig4 regenerates Figure 4 (design breakdown: LRS/LMS/GMS/
// LMS+BIP/GMS+SABIP/DSR/ASCC).
func BenchmarkFig4(b *testing.B) {
	runExperiment(b, "fig4", "geomean/ASCC", "geomean/LMS", "geomean/DSR")
}

// BenchmarkFig5 regenerates Figure 5 (the neutral state: ASCC vs ASCC-2S,
// DSR vs DSR-3S).
func BenchmarkFig5(b *testing.B) {
	runExperiment(b, "fig5", "geomean/ASCC", "geomean/ASCC-2S", "geomean/DSR-3S")
}

// BenchmarkTable1 regenerates Table 1 (the ASCC granularity sweep).
func BenchmarkTable1(b *testing.B) {
	runExperiment(b, "table1")
}

// BenchmarkFig7 regenerates Figure 7 (2-core speedups).
func BenchmarkFig7(b *testing.B) {
	runExperiment(b, "fig7", "geomean/ASCC", "geomean/AVGCC", "geomean/DSR")
}

// BenchmarkFig8 regenerates Figure 8 (4-core speedups).
func BenchmarkFig8(b *testing.B) {
	runExperiment(b, "fig8", "geomean/ASCC", "geomean/AVGCC", "geomean/DSR")
}

// BenchmarkFig9 regenerates Figure 9 (4-core fairness).
func BenchmarkFig9(b *testing.B) {
	runExperiment(b, "fig9", "geomean/ASCC", "geomean/AVGCC")
}

// BenchmarkSharedLLC regenerates the §6.1 shared-cache comparison.
func BenchmarkSharedLLC(b *testing.B) {
	runExperiment(b, "shared", "perf/2core", "perf/4core")
}

// BenchmarkFig10 regenerates Figure 10 (average memory latency and the
// local/remote/memory breakdown).
func BenchmarkFig10(b *testing.B) {
	runExperiment(b, "fig10", "aml2/AVGCC", "aml4/AVGCC", "aml2/ASCC")
}

// BenchmarkMultithreaded regenerates the §6.3 multithreaded study.
func BenchmarkMultithreaded(b *testing.B) {
	runExperiment(b, "mt", "geomean/ASCC", "geomean/AVGCC")
}

// BenchmarkPrefetcher regenerates the §6.3 stride-prefetcher sensitivity.
func BenchmarkPrefetcher(b *testing.B) {
	runExperiment(b, "prefetch", "AVGCC/2core", "AVGCC/4core")
}

// BenchmarkTable4 regenerates Table 4 (off-chip access reduction vs cache
// size).
func BenchmarkTable4(b *testing.B) {
	runExperiment(b, "table4", "reduction4/1MB", "reduction2/1MB")
}

// BenchmarkSpillStats regenerates the §6.4 spill-behaviour comparison.
func BenchmarkSpillStats(b *testing.B) {
	runExperiment(b, "spills", "hitsPerSpill2/AVGCC", "hitsPerSpill4/AVGCC")
}

// BenchmarkLimitedCounters regenerates the §7 limited-counter study.
func BenchmarkLimitedCounters(b *testing.B) {
	runExperiment(b, "limited", "geomean/div1", "geomean/div32")
}

// BenchmarkFig11 regenerates Figure 11 (QoS-aware AVGCC).
func BenchmarkFig11(b *testing.B) {
	runExperiment(b, "fig11", "geomean/AVGCC", "geomean/QoS-AVGCC", "geomean4/QoS-AVGCC")
}

// BenchmarkTable5 regenerates Table 5 (storage cost; pure arithmetic).
func BenchmarkTable5(b *testing.B) {
	runExperiment(b, "table5", "avgccPct", "qosPct")
}

// BenchmarkSimulatorThroughput measures raw simulation speed: instructions
// and cache-block references simulated per second on a 4-core AVGCC run
// (the heaviest configuration). A fresh System is built every iteration —
// policies and caches carry state, so a reused system would simulate a
// different (warmer) machine — but construction happens with the timer
// stopped: the metric is the simulator's steady-state speed, not workload-
// model setup.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := benchConfig()
	cfg.WarmupInstr = 0
	cfg.MeasureInstr = 1_000_000
	mix := []int{445, 444, 456, 471}
	runner := ascc.NewRunner(cfg)
	b.ResetTimer()
	var instr, blocks uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys, err := runner.Build(ascc.Spec{Mix: mix, Policy: ascc.AVGCC})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res := sys.Run(cfg.WarmupInstr, cfg.MeasureInstr)
		for _, c := range res.Cores {
			instr += c.Instructions
			blocks += c.L1Accesses
		}
	}
	b.ReportMetric(float64(instr)/b.Elapsed().Seconds(), "instr/s")
	b.ReportMetric(float64(blocks)/b.Elapsed().Seconds(), "blocks/s")
}

// BenchmarkScaleoutThroughput is BenchmarkSimulatorThroughput on the wide
// machine: the first 4-app mix widened to 64 cores by cyclic replication
// under AVGCC at the golden budget (120k warmup + 300k measured
// instructions per core) — the widest row of the scaleout experiment,
// where the L2 probes and the coherence directory dominate. Construction
// runs with the timer stopped; instr/s counts every core's instructions.
func BenchmarkScaleoutThroughput(b *testing.B) {
	cfg := benchConfig()
	cfg.WarmupInstr = 120_000
	cfg.MeasureInstr = 300_000
	mix := ascc.ExtendMix(ascc.FourAppMixes()[0], 64)
	runner := ascc.NewRunner(cfg)
	b.ResetTimer()
	var instr uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys, err := runner.Build(ascc.Spec{Mix: mix, Policy: ascc.AVGCC})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res := sys.Run(cfg.WarmupInstr, cfg.MeasureInstr)
		for _, c := range res.Cores {
			instr += c.Instructions
		}
	}
	b.ReportMetric(float64(instr)/b.Elapsed().Seconds(), "instr/s")
}

// BenchmarkSampledThroughput is BenchmarkSimulatorThroughput on the
// set-sampled fast path (DESIGN.md §16, -sample 1/8): same mix, same
// instruction budget, 1/8 of the LLC sets on pre-filtered streams. instr/s
// counts retired (full-stream) instructions, so the ratio to the full
// benchmark is the fast path's end-to-end speedup; blocks/s stays raw to
// show the actual simulated reference rate.
func BenchmarkSampledThroughput(b *testing.B) {
	cfg := benchConfig()
	cfg.WarmupInstr = 0
	cfg.MeasureInstr = 1_000_000
	cfg.SampleDen = 8
	mix := []int{445, 444, 456, 471}
	runner := ascc.NewRunner(cfg)
	b.ResetTimer()
	var instr, blocks uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys, err := runner.Build(ascc.Spec{Mix: mix, Policy: ascc.AVGCC})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res := sys.Run(cfg.WarmupInstr, cfg.MeasureInstr)
		for _, c := range res.Cores {
			instr += c.Instructions
			blocks += c.L1Accesses
		}
	}
	b.ReportMetric(float64(instr)/b.Elapsed().Seconds(), "instr/s")
	b.ReportMetric(float64(blocks)/b.Elapsed().Seconds(), "blocks/s")
}

// BenchmarkSampling regenerates the set-sampling accuracy table.
func BenchmarkSampling(b *testing.B) {
	runExperiment(b, "sampling")
}

// BenchmarkAblation regenerates the design-choice ablation study
// (DESIGN.md §6).
func BenchmarkAblation(b *testing.B) {
	runExperiment(b, "ablation")
}

// BenchmarkFutureWork regenerates the §9 future-work exploration (counter
// limits, alternative metrics).
func BenchmarkFutureWork(b *testing.B) {
	runExperiment(b, "futurework")
}
