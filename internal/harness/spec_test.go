package harness

import (
	"errors"
	"math/bits"
	"reflect"
	"testing"

	"ascc/internal/policies"
)

// specConfig is a short-budget configuration for the Spec tests, which
// count simulations rather than judge results.
func specConfig() Config {
	cfg := DefaultConfig()
	cfg.WarmupInstr = 20_000
	cfg.MeasureInstr = 60_000
	return cfg
}

// publishedASCC is the design point of policies.Published("ASCC") without
// geometry or seed, which the runner fills in.
var publishedASCC = policies.ASCCConfig{Capacity: policies.CapacitySABIP, Epsilon: 1.0 / 32.0, Swap: true}

// TestEqualASCCConfigsShareOneSimulation pins the config-keyed memo: the
// registry ASCC and a caller-built variant at the same design point run
// once, and each request's Results name its own design whichever came
// first.
func TestEqualASCCConfigsShareOneSimulation(t *testing.T) {
	mix := []int{445, 456}
	variant := publishedASCC
	registry := Spec{Mix: mix, Policy: PASCC}
	caller := Spec{Mix: mix, Policy: "ASCC512", ASCC: &variant}
	for _, order := range [][]Spec{{registry, caller}, {caller, registry}} {
		r := NewRunner(specConfig())
		for _, s := range order {
			res, err := r.Run(s)
			if err != nil {
				t.Fatal(err)
			}
			if res.Policy != string(s.Policy) {
				t.Errorf("request %q returned Results.Policy %q", s.Policy, res.Policy)
			}
			if n := r.Simulations(); n != 1 {
				t.Fatalf("after requesting %q: %d simulations, want 1", s.Policy, n)
			}
		}
		a, _ := r.Run(registry)
		b, _ := r.Run(caller)
		if !reflect.DeepEqual(a.Cores, b.Cores) {
			t.Fatal("equal configurations returned different results")
		}
	}
}

// TestVariantConfigsStillSimulate runs every registry ASCC-family design,
// then the caller-built sweep points: those equal to a registry design
// (Table 1's per-set and single-counter columns, §7's unlimited AVGCC) add
// no simulation, and those that differ from all of them (a Table 1
// granularity, an ablation, a future-work ceiling, a §7 counter cap) each
// add one.
func TestVariantConfigsStillSimulate(t *testing.T) {
	cfg := specConfig()
	r := NewRunner(cfg)
	mix := []int{445, 456}
	family := []PolicyID{PLRS, PLMS, PGMS, PLMSBIP, PGMSSABIP, PASCC, PASCC2S, PAVGCC, PQoSAVGCC}
	for _, id := range family {
		if _, err := r.RunMix(mix, id); err != nil {
			t.Fatal(err)
		}
	}
	if n := r.Simulations(); n != uint64(len(family)) {
		t.Fatalf("%d simulations for %d distinct registry designs", n, len(family))
	}

	sets, ways := cfg.L2Geometry()
	avgcc := func(maxCounters int) policies.ASCCConfig {
		c := policies.AVGCCDefaultConfig(0, sets, ways, 0)
		c.ResizePeriod = cfg.ResizePeriod()
		c.MaxCounters = maxCounters
		return c
	}
	edit := func(f func(*policies.ASCCConfig)) policies.ASCCConfig {
		c := publishedASCC
		f(&c)
		return c
	}
	for _, tc := range []struct {
		name  string
		cfg   policies.ASCCConfig
		fresh bool
	}{
		{"ASCC512", publishedASCC, false},
		{"ASCC1", edit(func(c *policies.ASCCConfig) { c.Granularity = bits.Len(uint(sets)) - 1 }), false},
		{"AVGCC-max512", avgcc(0), false},
		{"ASCC128", edit(func(c *policies.ASCCConfig) { c.Granularity = 2 }), true},
		{"guests always MRU", edit(func(c *policies.ASCCConfig) { c.SpillPlacement = policies.SpillMRU }), true},
		{"ASCC-maxK+2", edit(func(c *policies.ASCCConfig) { c.SSLMax = ways + 2 }), true},
		{"AVGCC-max256", avgcc(sets / 2), true},
	} {
		before := r.Simulations()
		res, err := r.Run(Spec{Mix: mix, Policy: PolicyID(tc.name), ASCC: &tc.cfg})
		if err != nil {
			t.Fatal(err)
		}
		if res.Policy != tc.name {
			t.Errorf("%s: Results.Policy %q", tc.name, res.Policy)
		}
		want := uint64(0)
		if tc.fresh {
			want = 1
		}
		if ran := r.Simulations() - before; ran != want {
			t.Errorf("%s ran %d simulations, want %d", tc.name, ran, want)
		}
	}
}

// TestResultsCoherenceProbes pins Results.CoherenceProbes to the system's
// own count for the same spec, raw (unscaled) under set sampling, and 0 on
// the shared machine.
func TestResultsCoherenceProbes(t *testing.T) {
	spec := Spec{Mix: []int{445, 456, 471, 473}, Policy: PAVGCC}
	for _, den := range []int{0, 8} {
		cfg := specConfig()
		cfg.SampleDen = den
		r := NewRunner(cfg)
		res, err := r.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := r.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		sys.Run(cfg.WarmupInstr, cfg.MeasureInstr)
		if res.CoherenceProbes == 0 || res.CoherenceProbes != sys.CoherenceProbes() {
			t.Errorf("1/%d: Results.CoherenceProbes %d, System.CoherenceProbes %d",
				den, res.CoherenceProbes, sys.CoherenceProbes())
		}
	}
	shared, err := NewRunner(specConfig()).Run(Spec{Kind: KindShared, Mix: spec.Mix})
	if err != nil {
		t.Fatal(err)
	}
	if shared.CoherenceProbes != 0 {
		t.Fatalf("shared machine reports %d coherence probes", shared.CoherenceProbes)
	}
}

// TestOneSetL2RunsBaselineOnly: a KindSingle run on a one-set (fully
// associative) L2 is refused under every design but the baseline, before
// any simulation, and runs under the baseline.
func TestOneSetL2RunsBaselineOnly(t *testing.T) {
	r := NewRunner(specConfig())
	l2 := r.Cfg.Params(1).L2
	l2.Ways = l2.SizeBytes / l2.LineBytes
	variant := publishedASCC
	for _, s := range []Spec{
		{Kind: KindSingle, Mix: []int{445}, L2: l2, Policy: PECC},
		{Kind: KindSingle, Mix: []int{445}, L2: l2, Policy: PDSR},
		{Kind: KindSingle, Mix: []int{445}, L2: l2, Policy: PBaseline, ASCC: &variant},
	} {
		if _, err := r.Run(s); !errors.Is(err, ErrOneSetPolicy) {
			t.Errorf("policy %q on a one-set L2: error %v, want ErrOneSetPolicy", s.Policy, err)
		}
	}
	if n := r.Simulations(); n != 0 {
		t.Fatalf("refused specs ran %d simulations", n)
	}
	res, sys, err := r.RunSystem(Spec{Kind: KindSingle, Mix: []int{445}, L2: l2, Policy: PBaseline})
	if err != nil {
		t.Fatalf("baseline on a one-set L2: %v", err)
	}
	if sys.L2(0).NumSets() != 1 || res.Cores[0].L2MemFills == 0 {
		t.Fatalf("baseline run: %d L2 sets, %d memory fills; want one set and some fills", sys.L2(0).NumSets(), res.Cores[0].L2MemFills)
	}
}
