package harness

import (
	"strings"
	"testing"
)

func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.WarmupInstr = 150_000
	cfg.MeasureInstr = 400_000
	return cfg
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Scale != 8 || cfg.Seed == 0 {
		t.Fatalf("default config %+v", cfg)
	}
	sets, ways := cfg.L2Geometry()
	if sets != 512 || ways != 8 {
		t.Fatalf("scaled geometry %d sets / %d ways, want 512/8", sets, ways)
	}
	if p := cfg.ResizePeriod(); p != 100000/64 {
		t.Fatalf("resize period %d, want %d", p, 100000/64)
	}
	scale1 := cfg
	scale1.Scale = 1
	if s, _ := scale1.L2Geometry(); s != 4096 {
		t.Fatalf("paper-scale sets %d, want 4096", s)
	}
	if scale1.ResizePeriod() != 100000 {
		t.Fatal("paper-scale resize period must stay 100000")
	}
}

func TestL2SizeOverrideIsPaperScale(t *testing.T) {
	cfg := tinyConfig()
	cfg.L2SizeBytes = 512 * 1024
	p := cfg.Params(2)
	if p.L2.SizeBytes != 512*1024/8 {
		t.Fatalf("override not scaled: %d", p.L2.SizeBytes)
	}
}

func TestNewPolicyRegistry(t *testing.T) {
	ids := []PolicyID{PBaseline, PCC, PDSR, PDSRDIP, PDSR3S, PECC, PLRS, PLMS,
		PGMS, PLMSBIP, PGMSSABIP, PASCC, PASCC2S, PAVGCC, PQoSAVGCC}
	for _, id := range ids {
		pol, err := NewPolicy(id, 4, 512, 8, 1, 0)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if pol.Name() != string(id) {
			t.Errorf("%s: policy names itself %q", id, pol.Name())
		}
	}
	if _, err := NewPolicy("bogus", 4, 512, 8, 1, 0); err == nil {
		t.Fatal("unknown policy id accepted")
	}
}

func TestAloneCPIMemoised(t *testing.T) {
	r := NewRunner(tinyConfig())
	a, err := r.AloneCPI(445)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.AloneCPI(445)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("memoised alone CPI changed: %v vs %v", a, b)
	}
	if a <= 0 {
		t.Fatalf("alone CPI %v", a)
	}
	cpis, err := r.AloneCPIs([]int{445, 456})
	if err != nil || len(cpis) != 2 || cpis[0] != a {
		t.Fatalf("AloneCPIs = %v, %v", cpis, err)
	}
	if _, err := r.AloneCPI(999); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestRunMixDeterministic(t *testing.T) {
	r1, r2 := NewRunner(tinyConfig()), NewRunner(tinyConfig())
	a, err := r1.RunMix([]int{445, 456}, PASCC)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r2.RunMix([]int{445, 456}, PASCC)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Cores {
		if a.Cores[i] != b.Cores[i] {
			t.Fatalf("core %d differs across identical runs", i)
		}
	}
}

func TestRunShared(t *testing.T) {
	r := NewRunner(tinyConfig())
	res, err := r.Run(Spec{Kind: KindShared, Mix: []int{445, 456}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "shared-LLC" || len(res.Cores) != 2 {
		t.Fatalf("shared run wrong: %q %d cores", res.Policy, len(res.Cores))
	}
}

func TestRunMT(t *testing.T) {
	cfg := tinyConfig()
	cfg.L2SizeBytes = 512 * 1024
	r := NewRunner(cfg)
	res, err := r.RunMT("ocean", 4, PAVGCC)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cores) != 4 {
		t.Fatalf("MT run has %d cores", len(res.Cores))
	}
	// Shared data must produce coherence traffic under the baseline too.
	base, err := r.RunMT("lu", 4, PBaseline)
	if err != nil {
		t.Fatal(err)
	}
	var remote uint64
	for _, c := range base.Cores {
		remote += c.L2RemoteHits
	}
	if remote == 0 {
		t.Fatal("multithreaded run produced no remote hits")
	}
	if _, err := r.RunMT("nope", 4, PBaseline); err == nil {
		t.Fatal("unknown MT workload accepted")
	}
}

func TestRunSingleCustomCache(t *testing.T) {
	cfg := tinyConfig()
	r := NewRunner(cfg)
	// Two of the configured L2's ways, at its set count.
	full := cfg.Params(1).L2
	l2 := full
	l2.SizeBytes, l2.Ways = full.SizeBytes/full.Ways*2, 2
	res, sys, err := r.RunSystem(Spec{Kind: KindSingle, Mix: []int{444}, L2: l2, Policy: PBaseline})
	if err != nil {
		t.Fatal(err)
	}
	if sets := full.SizeBytes / full.LineBytes / full.Ways; sys.L2(0).Ways() != 2 || sys.L2(0).NumSets() != sets {
		t.Fatalf("custom L2 is %d sets x %d ways, want %d x 2", sys.L2(0).NumSets(), sys.L2(0).Ways(), sets)
	}
	if res.Cores[0].Instructions == 0 {
		t.Fatal("no instructions committed")
	}
}

// TestBadGeometryIsAnError: an LLC whose set count is not a power of two
// (3 MB at scale 8 has 1536 sets) fails with the machine's validation
// error; the policy, whose constructors panic on such a set count, is
// never built.
func TestBadGeometryIsAnError(t *testing.T) {
	cfg := tinyConfig()
	cfg.L2SizeBytes = 3 << 20
	if _, err := NewRunner(cfg).RunMix([]int{445, 456}, PAVGCC); err == nil {
		t.Fatal("a 1536-set L2 was accepted")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := Table{
		Title:  "Demo",
		Header: []string{"a", "bbbb"},
		Rows:   [][]string{{"x", "1"}, {"longer", "2"}},
		Notes:  []string{"a note"},
	}
	s := tbl.String()
	for _, want := range []string{"== Demo ==", "longer", "note: a note", "----"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table output missing %q:\n%s", want, s)
		}
	}
	// Columns must align: every data line has the same prefix width for
	// column 2.
	lines := strings.Split(s, "\n")
	if !strings.HasPrefix(lines[1], "a     ") {
		t.Fatalf("header not padded: %q", lines[1])
	}
}

func TestTableRaggedRows(t *testing.T) {
	// Regression: a row with more cells than the header used to panic with
	// an index-out-of-range on widths[i]. Extra columns render unheaded.
	tbl := Table{
		Title:  "Ragged",
		Header: []string{"a"},
		Rows: [][]string{
			{"x", "extra", "more"},
			{"y"},
			{},
		},
	}
	s := tbl.String()
	for _, want := range []string{"== Ragged ==", "x", "extra", "more", "y"} {
		if !strings.Contains(s, want) {
			t.Fatalf("ragged table output missing %q:\n%s", want, s)
		}
	}
	// The widened column set must not disturb header alignment.
	if lines := strings.Split(s, "\n"); !strings.HasPrefix(lines[1], "a") {
		t.Fatalf("header line wrong: %q", lines[1])
	}
}

func TestFormatHelpers(t *testing.T) {
	if Pct(0.078) != "+7.8%" || Pct(-0.01) != "-1.0%" {
		t.Fatal("Pct wrong")
	}
	if F2(1.234) != "1.23" {
		t.Fatal("F2 wrong")
	}
}
