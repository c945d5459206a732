// Package metrics implements the evaluation metrics of the paper: weighted
// speedup (Snavely & Tullsen) for performance, the harmonic mean of
// normalised IPCs (Luo et al.) for fairness, geometric means for the
// cross-workload summaries, and the average-memory-latency breakdown of
// Figure 10.
package metrics

import (
	"fmt"
	"math"

	"ascc/internal/cmp"
)

// WeightedSpeedup computes sum(IPC_i / IPCalone_i): each application's
// progress relative to running alone, summed over the cores. cpis and
// aloneCPIs must be parallel slices.
func WeightedSpeedup(cpis, aloneCPIs []float64) float64 {
	if len(cpis) != len(aloneCPIs) {
		panic(fmt.Sprintf("metrics: %d CPIs vs %d alone CPIs", len(cpis), len(aloneCPIs)))
	}
	ws := 0.0
	for i := range cpis {
		if cpis[i] <= 0 {
			panic("metrics: non-positive CPI")
		}
		ws += aloneCPIs[i] / cpis[i]
	}
	return ws
}

// HMeanFairness computes the harmonic mean of normalised IPCs,
// N / sum(CPI_i / CPIalone_i), which balances fairness and throughput.
func HMeanFairness(cpis, aloneCPIs []float64) float64 {
	if len(cpis) != len(aloneCPIs) {
		panic(fmt.Sprintf("metrics: %d CPIs vs %d alone CPIs", len(cpis), len(aloneCPIs)))
	}
	den := 0.0
	for i := range cpis {
		if aloneCPIs[i] <= 0 {
			panic("metrics: non-positive alone CPI")
		}
		den += cpis[i] / aloneCPIs[i]
	}
	return float64(len(cpis)) / den
}

// Improvement returns the relative improvement of value over base as a
// fraction (0.078 = +7.8%).
func Improvement(value, base float64) float64 {
	if base == 0 {
		panic("metrics: zero base")
	}
	return value/base - 1
}

// Geomean returns the geometric mean of (1+x_i)-style ratios. Inputs are
// the ratios themselves (e.g. speedups); the result is their geometric
// mean. Panics on non-positive entries.
func Geomean(ratios []float64) float64 {
	if len(ratios) == 0 {
		panic("metrics: geomean of nothing")
	}
	s := 0.0
	for _, r := range ratios {
		if r <= 0 {
			panic(fmt.Sprintf("metrics: non-positive ratio %v", r))
		}
		s += math.Log(r)
	}
	return math.Exp(s / float64(len(ratios)))
}

// GeomeanImprovement converts a slice of fractional improvements into their
// geometric-mean improvement: geomean(1+x_i) - 1. This is how the paper's
// "geomean" columns summarise per-mix percentages.
func GeomeanImprovement(improvements []float64) float64 {
	ratios := make([]float64, len(improvements))
	for i, x := range improvements {
		ratios[i] = 1 + x
	}
	return Geomean(ratios) - 1
}

// CPIs extracts per-core CPIs from a simulation result.
func CPIs(r cmp.Results) []float64 {
	out := make([]float64, len(r.Cores))
	for i, c := range r.Cores {
		out[i] = c.CPI()
	}
	return out
}

// AMLBreakdown is the Figure 10 decomposition of demand L2 accesses.
type AMLBreakdown struct {
	AML        float64 // cycles per demand L2 access
	LocalFrac  float64
	RemoteFrac float64
	MemoryFrac float64
	L2Accesses uint64
}

// BreakdownOf aggregates the AML breakdown over all cores of a run.
func BreakdownOf(r cmp.Results) AMLBreakdown {
	var acc, local, remote, mem uint64
	var latSum float64
	for _, c := range r.Cores {
		acc += c.L2Accesses
		local += c.L2LocalHits
		remote += c.L2RemoteHits
		mem += c.L2MemFills
		latSum += c.LatencySum
	}
	if acc == 0 {
		return AMLBreakdown{}
	}
	return AMLBreakdown{
		AML:        latSum / float64(acc),
		LocalFrac:  float64(local) / float64(acc),
		RemoteFrac: float64(remote) / float64(acc),
		MemoryFrac: float64(mem) / float64(acc),
		L2Accesses: acc,
	}
}

// SpillStats aggregates the §6.4 behaviour metrics of a run.
type SpillStats struct {
	Spills       uint64 // spill transfers (including swaps)
	SpillHits    uint64 // hits served by spilled lines
	HitsPerSpill float64
}

// SpillStatsOf computes spill behaviour over all cores.
func SpillStatsOf(r cmp.Results) SpillStats {
	var s SpillStats
	for _, c := range r.Cores {
		s.Spills += c.SpillsOut + c.Swaps
		s.SpillHits += c.SpillHits
	}
	if s.Spills > 0 {
		s.HitsPerSpill = float64(s.SpillHits) / float64(s.Spills)
	}
	return s
}
