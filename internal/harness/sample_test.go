package harness

import (
	"math"
	"testing"
)

// TestSampleConfigPropagation pins how Config.SampleDen reaches the machine
// description: plumbed through params() when active, dropped entirely — not
// merely unvalidated — under the prefetcher (cross-set state), and driving
// the resize-period rescale that keeps adaptation decisions per instruction
// aligned with the full run.
func TestSampleConfigPropagation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SampleDen = 8
	if p := cfg.Params(4); p.SampleDen != 8 {
		t.Fatalf("params dropped SampleDen: %+v", p)
	} else if want := syncSlackPerSkip * 7; p.SyncSlack != want {
		t.Fatalf("sampled SyncSlack %v, want %v", p.SyncSlack, want)
	}
	if got, want := cfg.ResizePeriod(), uint64(100000/64/8); got != want {
		t.Fatalf("sampled resize period %d, want %d", got, want)
	}
	spec, err := cfg.Params(1).SampleSpec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Den != 8 || spec.Granule != 32 || spec.Sets != 512 {
		t.Fatalf("derived spec %+v", spec)
	}

	cfg.Prefetch = true
	if p := cfg.Params(4); p.SampleDen != 0 {
		t.Fatalf("prefetch run kept SampleDen: %+v", p)
	} else if p.SyncSlack != 0 {
		t.Fatalf("prefetch run kept SyncSlack %v, want 0 (exact sync)", p.SyncSlack)
	}
	if got, want := cfg.ResizePeriod(), uint64(100000/64); got != want {
		t.Fatalf("prefetch resize period %d, want %d", got, want)
	}
}

// TestRunMixSampled is the end-to-end smoke for the fast path: a sampled
// mix run completes, retires the full run's instruction quota (the filtered
// streams carry the skipped references' gaps), is deterministic
// across runners (the filtered sub-arena is itself memoised), and lands
// within a loose accuracy envelope of the full-fidelity CPI — the tight
// per-set exactness lives in cmp's FuzzSampleEquivalence; the measured
// error is pinned by the `sampling` experiment golden.
func TestRunMixSampled(t *testing.T) {
	mix := []int{445, 456}
	full, err := NewRunner(tinyConfig()).RunMix(mix, PASCC)
	if err != nil {
		t.Fatal(err)
	}

	scfg := tinyConfig()
	scfg.SampleDen = 8
	r1, r2 := NewRunner(scfg), NewRunner(scfg)
	a, err := r1.RunMix(mix, PASCC)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r2.RunMix(mix, PASCC)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Cores {
		if a.Cores[i] != b.Cores[i] {
			t.Fatalf("core %d differs across identical sampled runs", i)
		}
		// The cumulative instruction stream is exact; the stop boundary can
		// overshoot the quota by at most the final reference's merged gap.
		fi, si := float64(full.Cores[i].Instructions), float64(a.Cores[i].Instructions)
		if math.Abs(si-fi)/fi > 0.001 {
			t.Fatalf("core %d instructions: sampled %d, full %d",
				i, a.Cores[i].Instructions, full.Cores[i].Instructions)
		}
		fullCPI, sampCPI := full.Cores[i].CPI(), a.Cores[i].CPI()
		if relErr := math.Abs(sampCPI-fullCPI) / fullCPI; relErr > 0.25 {
			t.Fatalf("core %d CPI error %.1f%%: sampled %.3f, full %.3f",
				i, 100*relErr, sampCPI, fullCPI)
		}
	}
}

// TestRunSharedSampled is TestRunMixSampled for the shared-LLC machine: the
// aggregate cache samples with the private machine's spec (replaying the
// same filtered sub-arenas), deterministically and within the same loose
// envelope of the full-fidelity run.
func TestRunSharedSampled(t *testing.T) {
	mix := []int{445, 456}
	full, err := NewRunner(tinyConfig()).Run(Spec{Kind: KindShared, Mix: mix})
	if err != nil {
		t.Fatal(err)
	}

	scfg := tinyConfig()
	scfg.SampleDen = 8
	r1, r2 := NewRunner(scfg), NewRunner(scfg)
	a, err := r1.Run(Spec{Kind: KindShared, Mix: mix})
	if err != nil {
		t.Fatal(err)
	}
	b, err := r2.Run(Spec{Kind: KindShared, Mix: mix})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Cores {
		if a.Cores[i] != b.Cores[i] {
			t.Fatalf("core %d differs across identical sampled shared runs", i)
		}
		fi, si := float64(full.Cores[i].Instructions), float64(a.Cores[i].Instructions)
		if math.Abs(si-fi)/fi > 0.001 {
			t.Fatalf("core %d instructions: sampled %d, full %d",
				i, a.Cores[i].Instructions, full.Cores[i].Instructions)
		}
		fullCPI, sampCPI := full.Cores[i].CPI(), a.Cores[i].CPI()
		if relErr := math.Abs(sampCPI-fullCPI) / fullCPI; relErr > 0.25 {
			t.Fatalf("core %d shared CPI error %.1f%%: sampled %.3f, full %.3f",
				i, 100*relErr, sampCPI, fullCPI)
		}
	}
}
