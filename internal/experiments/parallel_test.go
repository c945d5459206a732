package experiments

import (
	"reflect"
	"testing"
)

// TestByIDParallelDeterminism asserts that experiments render bit-identical
// tables and headline values at -parallel 1 and -parallel 8. The three ids
// cover the three execution shapes: the warm-then-assemble cache path
// (fig8), the RunSingle indexed fan-out (fig2) and the RunMixWith indexed
// fan-out (limited).
func TestByIDParallelDeterminism(t *testing.T) {
	for _, id := range []string{"fig8", "fig2", "limited"} {
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
