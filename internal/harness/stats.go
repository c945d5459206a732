package harness

import (
	"fmt"
	"math"

	"ascc/internal/metrics"
)

// SeedStats summarises a metric measured across independent seeds.
type SeedStats struct {
	N      int
	Mean   float64
	StdDev float64 // sample standard deviation
	Min    float64
	Max    float64
}

// CI95 returns the half-width of the ~95% confidence interval of the mean
// under the normal approximation (1.96 σ/√N). Zero for N < 2.
func (s SeedStats) CI95() float64 {
	if s.N < 2 {
		return 0
	}
	return 1.96 * s.StdDev / math.Sqrt(float64(s.N))
}

// String renders "mean ± ci95 [min, max] (n=N)" with percentages.
func (s SeedStats) String() string {
	return fmt.Sprintf("%+.2f%% ± %.2f%% [%+.2f%%, %+.2f%%] (n=%d)",
		100*s.Mean, 100*s.CI95(), 100*s.Min, 100*s.Max, s.N)
}

// summarise computes SeedStats over samples.
func summarise(samples []float64) SeedStats {
	st := SeedStats{N: len(samples)}
	if st.N == 0 {
		return st
	}
	st.Min, st.Max = samples[0], samples[0]
	sum := 0.0
	for _, v := range samples {
		sum += v
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
	}
	st.Mean = sum / float64(st.N)
	if st.N > 1 {
		ss := 0.0
		for _, v := range samples {
			d := v - st.Mean
			ss += d * d
		}
		st.StdDev = math.Sqrt(ss / float64(st.N-1))
	}
	return st
}

// Gain is a run's improvement over the private baseline on the same mix:
// weighted speedup, and its fairness twin (the harmonic mean of normalised
// IPCs).
type Gain struct{ WS, Fair float64 }

// Gain requests the mix's alone CPIs and private-baseline run, then runs s,
// and returns s's gain over that baseline.
func (r *Runner) Gain(mix []int, s Spec) (Gain, error) {
	alone, err := r.AloneCPIs(mix)
	if err != nil {
		return Gain{}, err
	}
	base, err := r.RunMix(mix, PBaseline)
	if err != nil {
		return Gain{}, err
	}
	res, err := r.Run(s)
	if err != nil {
		return Gain{}, err
	}
	b, c := metrics.CPIs(base), metrics.CPIs(res)
	return Gain{
		WS:   metrics.Improvement(metrics.WeightedSpeedup(c, alone), metrics.WeightedSpeedup(b, alone)),
		Fair: metrics.Improvement(metrics.HMeanFairness(c, alone), metrics.HMeanFairness(b, alone)),
	}, nil
}

// SpeedupOverSeeds measures a policy's weighted-speedup improvement over
// the baseline for one mix across n independent seeds (seed, seed+1, ...),
// returning the distribution. Each seed gets fresh generators, policy state
// and alone-CPI calibrations, so the spread reflects genuine workload
// randomness rather than measurement noise (the simulator itself is
// deterministic per seed). The seeds fan out on the runner's worker pool;
// the distribution is identical at every pool size.
func (r *Runner) SpeedupOverSeeds(mix []int, id PolicyID, n int) (SeedStats, error) {
	if n <= 0 {
		return SeedStats{}, fmt.Errorf("harness: non-positive seed count %d", n)
	}
	samples := make([]float64, n)
	err := ForEach(n, func(i int) error {
		cfg := r.Cfg
		cfg.Seed = r.Cfg.Seed + uint64(i)
		sub := NewRunner(cfg) // r.Cfg carries the pool, so sub shares it
		g, err := sub.Gain(mix, Spec{Mix: sub.Cfg.extend(mix), Policy: id})
		samples[i] = g.WS
		return err
	})
	if err != nil {
		return SeedStats{}, err
	}
	return summarise(samples), nil
}
