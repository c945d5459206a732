package experiments

import (
	"reflect"
	"testing"

	"ascc/internal/harness"
)

// TestByIDParallelDeterminism asserts that experiments render bit-identical
// tables and headline values at -parallel 1 and -parallel 8. The ids cover
// the run shapes: a registry-policy grid (fig8), unmemoised runs that
// inspect their systems (fig2), caller-built ASCC variants (limited) and
// the sequential width sweep (scaleout).
func TestByIDParallelDeterminism(t *testing.T) {
	for _, id := range []string{"fig8", "fig2", "limited", "scaleout"} {
		seqCfg := tinyConfig()
		seqCfg.Parallel = 1
		parCfg := tinyConfig()
		parCfg.Parallel = 8

		seq, err := ByID(seqCfg, id)
		if err != nil {
			t.Fatalf("%s sequential: %v", id, err)
		}
		par, err := ByID(parCfg, id)
		if err != nil {
			t.Fatalf("%s parallel: %v", id, err)
		}
		if s, p := seq.Table.String(), par.Table.String(); s != p {
			t.Errorf("%s table differs between -parallel 1 and -parallel 8:\n--- parallel 1 ---\n%s\n--- parallel 8 ---\n%s", id, s, p)
		}
		if !reflect.DeepEqual(seq.Values, par.Values) {
			t.Errorf("%s headline values differ:\n%v\nvs\n%v", id, seq.Values, par.Values)
		}
	}
}

// TestAllSharedPoolOrdering runs the full suite on a shared pool at a very
// small budget and checks the results come back in paper order.
func TestAllSharedPoolOrdering(t *testing.T) {
	cfg := tinyConfig()
	cfg.WarmupInstr = 30_000
	cfg.MeasureInstr = 80_000
	cfg.Parallel = 4
	out, err := All(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := IDs()
	if len(out) != len(ids) {
		t.Fatalf("%d results, want %d", len(out), len(ids))
	}
	for i, res := range out {
		if res.ID != ids[i] {
			t.Fatalf("result %d is %q, want %q (paper order)", i, res.ID, ids[i])
		}
		if len(res.Table.Rows) == 0 {
			t.Fatalf("experiment %s produced an empty table", res.ID)
		}
	}
}

// TestVariantSweepSimulationCounts pins how many simulations the
// caller-built ASCC sweeps cost. Run alone, each simulates every cell (its
// variants × the six 4-app mixes, plus six baselines and eleven alone
// runs). After fig4 and fig8 on the same pool, only the variants that
// differ from every registry design simulate: Table 1's per-set and
// single-counter columns are ASCC and GMS+SABIP, ablation's first row and
// futurework's 2K-1 row are ASCC, and limited's unlimited row is AVGCC.
// The counts do not depend on the instruction budget.
func TestVariantSweepSimulationCounts(t *testing.T) {
	cfg := tinyConfig()
	cfg.WarmupInstr, cfg.MeasureInstr = 10_000, 30_000
	sims := func(c harness.Config, id string) uint64 {
		r := harness.SharedRunner(c)
		before := r.Simulations()
		if _, err := ByID(c, id); err != nil {
			t.Fatal(err)
		}
		return r.Simulations() - before
	}
	sweeps := []struct {
		id              string
		alone, afterReg uint64
	}{
		{"table1", 53, 24}, {"ablation", 59, 36}, {"futurework", 47, 24}, {"limited", 35, 12},
	}
	for _, s := range sweeps {
		if n := sims(cfg.WithPool(harness.NewPool(0)), s.id); n != s.alone {
			t.Errorf("%s alone ran %d simulations, want %d", s.id, n, s.alone)
		}
	}
	shared := cfg.WithPool(harness.NewPool(0))
	sims(shared, "fig4")
	sims(shared, "fig8")
	for _, s := range sweeps {
		if n := sims(shared, s.id); n != s.afterReg {
			t.Errorf("%s after fig4+fig8 ran %d simulations, want %d", s.id, n, s.afterReg)
		}
	}
}
