package metrics

import (
	"math"
	"testing"

	"ascc/internal/cmp"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestWeightedSpeedup(t *testing.T) {
	// Two apps: one at alone speed, one at half speed.
	ws := WeightedSpeedup([]float64{2, 4}, []float64{2, 2})
	if !almost(ws, 1.5) {
		t.Fatalf("WS = %v, want 1.5", ws)
	}
	// Identical CPIs: WS = N.
	if ws := WeightedSpeedup([]float64{1, 1, 1}, []float64{1, 1, 1}); !almost(ws, 3) {
		t.Fatalf("WS = %v, want 3", ws)
	}
}

func TestHMeanFairness(t *testing.T) {
	// Perfect: hmean of 1s is 1.
	if h := HMeanFairness([]float64{2, 3}, []float64{2, 3}); !almost(h, 1) {
		t.Fatalf("hmean = %v, want 1", h)
	}
	// One app slowed 2x: hmean = 2/(1+2) * 2 = 4/3... check formula:
	// den = 1 + 2 = 3, h = 2/3.
	if h := HMeanFairness([]float64{2, 6}, []float64{2, 3}); !almost(h, 2.0/3.0) {
		t.Fatalf("hmean = %v, want 2/3", h)
	}
}

func TestImprovement(t *testing.T) {
	if !almost(Improvement(1.078, 1.0), 0.078) {
		t.Fatal("improvement wrong")
	}
	if !almost(Improvement(0.9, 1.0), -0.1) {
		t.Fatal("degradation wrong")
	}
}

func TestGeomean(t *testing.T) {
	if g := Geomean([]float64{2, 8}); !almost(g, 4) {
		t.Fatalf("geomean = %v, want 4", g)
	}
	if g := GeomeanImprovement([]float64{0.1, -0.05}); math.Abs(g-0.02233) > 0.001 {
		t.Fatalf("geomean improvement = %v, want ~0.0223", g)
	}
}

func TestPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"ws-len":     func() { WeightedSpeedup([]float64{1}, []float64{1, 2}) },
		"ws-zero":    func() { WeightedSpeedup([]float64{0}, []float64{1}) },
		"hm-len":     func() { HMeanFairness([]float64{1}, []float64{1, 2}) },
		"hm-zero":    func() { HMeanFairness([]float64{1}, []float64{0}) },
		"imp-zero":   func() { Improvement(1, 0) },
		"geo-empty":  func() { Geomean(nil) },
		"geo-nonpos": func() { Geomean([]float64{1, 0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestCPIs(t *testing.T) {
	r := cmp.Results{Cores: []cmp.CoreStats{
		{Instructions: 100, Cycles: 150},
		{Instructions: 100, Cycles: 300},
	}}
	c := CPIs(r)
	if !almost(c[0], 1.5) || !almost(c[1], 3) {
		t.Fatalf("CPIs = %v", c)
	}
}

func TestBreakdownOf(t *testing.T) {
	r := cmp.Results{Cores: []cmp.CoreStats{
		{L2Accesses: 60, L2LocalHits: 30, L2RemoteHits: 15, L2MemFills: 15, LatencySum: 600},
		{L2Accesses: 40, L2LocalHits: 40, LatencySum: 360},
	}}
	b := BreakdownOf(r)
	if !almost(b.AML, 9.6) {
		t.Fatalf("AML = %v, want 9.6", b.AML)
	}
	if !almost(b.LocalFrac, 0.7) || !almost(b.RemoteFrac, 0.15) || !almost(b.MemoryFrac, 0.15) {
		t.Fatalf("fractions = %+v", b)
	}
	if b.LocalFrac+b.RemoteFrac+b.MemoryFrac != 1 {
		t.Fatal("fractions do not sum to 1")
	}
	if empty := BreakdownOf(cmp.Results{}); empty.AML != 0 {
		t.Fatal("empty breakdown not zero")
	}
}

func TestSpillStatsOf(t *testing.T) {
	r := cmp.Results{Cores: []cmp.CoreStats{
		{SpillsOut: 10, Swaps: 2, SpillHits: 30},
		{SpillsOut: 8, SpillHits: 10},
	}}
	s := SpillStatsOf(r)
	if s.Spills != 20 || s.SpillHits != 40 {
		t.Fatalf("spill stats %+v", s)
	}
	if !almost(s.HitsPerSpill, 2) {
		t.Fatalf("hits/spill = %v, want 2", s.HitsPerSpill)
	}
	if z := SpillStatsOf(cmp.Results{}); z.HitsPerSpill != 0 {
		t.Fatal("zero-spill division")
	}
}
