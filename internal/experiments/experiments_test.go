package experiments

import (
	"strings"
	"testing"

	"ascc/internal/harness"
)

// tinyConfig trades fidelity for speed: experiment tests verify structure
// and basic sanity, not the headline magnitudes (the benches and
// EXPERIMENTS.md cover those at the full budget).
func tinyConfig() harness.Config {
	cfg := harness.DefaultConfig()
	cfg.WarmupInstr = 120_000
	cfg.MeasureInstr = 300_000
	return cfg
}

func TestIDsAndByID(t *testing.T) {
	ids := IDs()
	if len(ids) != 21 {
		t.Fatalf("%d experiment ids, want 21", len(ids))
	}
	if _, err := ByID(tinyConfig(), "bogus"); err == nil {
		t.Fatal("unknown id accepted")
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate id %s", id)
		}
		seen[id] = true
	}
}

func TestFig1Structure(t *testing.T) {
	res, err := Fig1(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "fig1" {
		t.Fatalf("id %q", res.ID)
	}
	// 8 benchmarks x 2 rows (MPKI + CPI).
	if len(res.Table.Rows) != 16 {
		t.Fatalf("%d rows, want 16", len(res.Table.Rows))
	}
	// Streaming milc must be nearly flat: 16-way MPKI close to 4-way's.
	if res.Values["milc/mpki@16"] < res.Values["milc/mpki@2"]*0.5 {
		t.Errorf("milc MPKI halves with ways (%v -> %v): should be capacity-insensitive",
			res.Values["milc/mpki@2"], res.Values["milc/mpki@16"])
	}
	// astar must benefit substantially.
	if res.Values["astar/mpki@16"] >= res.Values["astar/mpki@2"]*0.8 {
		t.Errorf("astar MPKI barely improves with ways (%v -> %v)",
			res.Values["astar/mpki@2"], res.Values["astar/mpki@16"])
	}
}

func TestFig2Structure(t *testing.T) {
	res, err := Fig2(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 14 { // 2 benchmarks x 7 way counts
		t.Fatalf("%d rows, want 14", len(res.Table.Rows))
	}
	// milc's sets are overwhelmingly constant at high way counts; astar has
	// far more favored sets at low way counts.
	if res.Values["milc/favored@16"] > 20 {
		t.Errorf("milc favored@16 = %v%%, want near zero", res.Values["milc/favored@16"])
	}
	if res.Values["astar/favored@6"] < 50 {
		t.Errorf("astar favored@6 = %v%%, want majority", res.Values["astar/favored@6"])
	}
}

func TestSpeedupTableStructure(t *testing.T) {
	res, err := Fig8(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 6 mixes + geomean row.
	if len(res.Table.Rows) != 7 {
		t.Fatalf("%d rows, want 7", len(res.Table.Rows))
	}
	if res.Table.Rows[6][0] != "geomean" {
		t.Fatalf("last row %v, want geomean", res.Table.Rows[6])
	}
	for _, key := range []string{"geomean/DSR", "geomean/ASCC", "geomean/AVGCC"} {
		if _, ok := res.Values[key]; !ok {
			t.Errorf("missing headline value %s", key)
		}
	}
}

func TestSamplingStructure(t *testing.T) {
	res, err := Sampling(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 3 denominators x 4 policies.
	if len(res.Table.Rows) != 12 {
		t.Fatalf("%d rows, want 12", len(res.Table.Rows))
	}
	if res.Table.Rows[0][0] != "1/4" || res.Table.Rows[11][0] != "1/16" {
		t.Fatalf("denominator order wrong: %v ... %v", res.Table.Rows[0], res.Table.Rows[11])
	}
	for _, key := range []string{"cpierr/1/8/DSR", "cpierr/1/8/AVGCC", "wserrpp/1/16/AVGCC", "cpierr/1/8/DSR+DIP", "wserrpp/1/8/ECC"} {
		v, ok := res.Values[key]
		if !ok {
			t.Errorf("missing headline value %s", key)
			continue
		}
		// The estimate must stay in the same regime as the full run even at
		// the test budget; the golden pins the exact figures.
		if v < 0 || v > 50 {
			t.Errorf("%s = %v, outside the sane accuracy envelope", key, v)
		}
	}
}

func TestTable1Structure(t *testing.T) {
	res, err := Table1(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Header) != 7 { // workload + 6 granularities
		t.Fatalf("header %v", res.Table.Header)
	}
	if res.Table.Header[1] != "ASCC512" || res.Table.Header[6] != "ASCC1" {
		t.Fatalf("granularity columns wrong: %v", res.Table.Header)
	}
}

func TestFig10Structure(t *testing.T) {
	res, err := Fig10(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := res.Table.String()
	if !strings.Contains(s, "geomean-4core") {
		t.Fatal("missing 4-core summary")
	}
	for _, key := range []string{"aml2/AVGCC", "aml4/AVGCC"} {
		if _, ok := res.Values[key]; !ok {
			t.Errorf("missing %s", key)
		}
	}
	// The breakdown fractions of any baseline row must sum to ~100.
	row := res.Table.Rows[0]
	if row[1] != "baseline" {
		t.Fatalf("first row %v", row)
	}
}

func TestTable5Exact(t *testing.T) {
	res, err := Table5(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["avgccBits"] != 20508 {
		t.Fatalf("AVGCC bits %v, want 20508", res.Values["avgccBits"])
	}
	if v := res.Values["qosPct"]; v < 0.3 || v > 0.4 {
		t.Fatalf("QoS overhead %v%%, want ~0.35%%", v)
	}
}

func TestMultithreadedStructure(t *testing.T) {
	res, err := Multithreaded(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 7 { // 6 workloads + geomean
		t.Fatalf("%d rows, want 7", len(res.Table.Rows))
	}
}

func TestLimitedCountersStructure(t *testing.T) {
	res, err := LimitedCounters(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 3 {
		t.Fatalf("%d rows, want 3", len(res.Table.Rows))
	}
	// The storage column must show the paper's 83B and 1284B entries.
	s := res.Table.String()
	if !strings.Contains(s, "84B") && !strings.Contains(s, "83B") {
		t.Fatalf("paper-scale 83B storage figure missing:\n%s", s)
	}
}

func TestFig11Structure(t *testing.T) {
	res, err := Fig11(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 16 { // 14 mixes + 2 geomean rows
		t.Fatalf("%d rows, want 16", len(res.Table.Rows))
	}
	for _, key := range []string{"geomean/QoS-AVGCC", "geomean4/QoS-AVGCC"} {
		if _, ok := res.Values[key]; !ok {
			t.Errorf("missing %s", key)
		}
	}
}

func TestSharedLLCStructure(t *testing.T) {
	res, err := SharedLLC(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 2 {
		t.Fatalf("%d rows, want 2", len(res.Table.Rows))
	}
}

func TestSpillBehaviorStructure(t *testing.T) {
	res, err := SpillBehavior(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 8 { // 4 policies x 2 core counts
		t.Fatalf("%d rows, want 8", len(res.Table.Rows))
	}
	// The cooperative designs must actually spill in these workloads.
	if res.Values["spills4/AVGCC"] == 0 {
		t.Error("AVGCC never spilled across the 4-core mixes")
	}
}
