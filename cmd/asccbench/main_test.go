package main

import (
	"os"
	"strings"
	"testing"
)

// base returns the options the flag defaults produce.
func base() options {
	return options{scale: 8, seeds: 1, policy: "AVGCC", format: "text"}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*options)
		wantErr string // empty = valid
	}{
		{"defaults", func(o *options) { o.exp = "fig8" }, ""},
		{"scale zero", func(o *options) { o.scale = 0 }, "-scale"},
		{"scale negative", func(o *options) { o.scale = -1 }, "-scale"},
		{"scale 3 fractional lines", func(o *options) { o.exp = "mt"; o.scale = 3 }, "-scale 3"},
		{"scale 6 fractional lines", func(o *options) { o.exp = "fig8"; o.scale = 6 }, "-scale 6"},
		{"scale 512 too few lines", func(o *options) { o.exp = "fig8"; o.scale = 512 }, "-scale 512"},
		{"scale 256 ok", func(o *options) { o.exp = "fig8"; o.scale = 256 }, ""},
		{"seeds zero", func(o *options) { o.seeds = 0 }, "-seeds"},
		{"parallel negative", func(o *options) { o.parallel = -2 }, "-parallel"},
		{"bad format", func(o *options) { o.format = "xml" }, "format"},
		{"seeds without mix", func(o *options) { o.exp = "fig8"; o.seeds = 5 }, "-seeds"},
		{"seeds with mix ok", func(o *options) { o.mix = "445+456"; o.seeds = 5 }, ""},
		{"csv with mix", func(o *options) { o.mix = "445+456"; o.format = "csv" }, "-format"},
		{"json with trace", func(o *options) { o.traces = "a.trc"; o.format = "json" }, "-format"},
		{"mix and trace", func(o *options) { o.mix = "445"; o.traces = "a.trc" }, "mutually exclusive"},
		{"exp and mix", func(o *options) { o.exp = "fig8"; o.mix = "445+456" }, "-exp"},
		{"exp and trace", func(o *options) { o.exp = "fig8"; o.traces = "a.trc" }, "-exp"},
		{"parallel ok", func(o *options) { o.exp = "all"; o.parallel = 8 }, ""},
		{"trace cache budget ok", func(o *options) { o.exp = "all"; o.traceMB = 512 }, ""},
		{"negative cache budget", func(o *options) { o.traceMB = -1 }, "-trace-cache-mb"},
		{"policy with exp", func(o *options) { o.exp = "fig8"; o.policy = "ASCC"; o.policySet = true }, "-policy"},
		{"policy with all", func(o *options) { o.exp = "all"; o.policySet = true }, "-policy"},
		{"policy with mix ok", func(o *options) { o.mix = "445+456"; o.policy = "ASCC"; o.policySet = true }, ""},
		{"policy with trace ok", func(o *options) { o.traces = "a.trc"; o.policySet = true }, ""},
		{"default policy with exp ok", func(o *options) { o.exp = "fig8" }, ""},
		{"timing with exp", func(o *options) { o.exp = "fig8"; o.timing = true }, ""},
		{"timing with mix", func(o *options) { o.mix = "445+456"; o.timing = true }, ""},
		{"timing with csv exp", func(o *options) { o.exp = "fig8"; o.format = "csv"; o.timing = true }, ""},
		{"cores with exp ok", func(o *options) { o.exp = "all"; o.cores = 64 }, ""},
		{"cores with mix ok", func(o *options) { o.mix = "445+456"; o.cores = 16 }, ""},
		{"cores negative", func(o *options) { o.exp = "fig8"; o.cores = -4 }, "-cores"},
		{"cores over mask", func(o *options) { o.exp = "fig8"; o.cores = 65 }, "-cores"},
		{"cores with trace", func(o *options) { o.traces = "a.trc"; o.cores = 8 }, "-cores"},
		{"cores with exp scaleout", func(o *options) { o.exp = "scaleout"; o.cores = 8 }, "-exp scaleout"},
		{"cores with exp mt", func(o *options) { o.exp = "mt"; o.cores = 8 }, "-exp mt"},
		{"scaleout without cores ok", func(o *options) { o.exp = "scaleout" }, ""},
		{"arena store with exp ok", func(o *options) { o.exp = "all"; o.storeDir = "/tmp/arenas" }, ""},
		{"arena store with mix ok", func(o *options) { o.mix = "445+456"; o.storeDir = "/tmp/arenas" }, ""},
		{"prewarm ok", func(o *options) { o.prewarm = true; o.storeDir = "/tmp/arenas" }, ""},
		{"prewarm without store", func(o *options) { o.prewarm = true }, "-arena-store"},
		{"prewarm with exp", func(o *options) { o.prewarm = true; o.storeDir = "/tmp/arenas"; o.exp = "fig8" }, "-prewarm"},
		{"prewarm with mix", func(o *options) { o.prewarm = true; o.storeDir = "/tmp/arenas"; o.mix = "445+456" }, "-prewarm"},
		{"prewarm with trace", func(o *options) { o.prewarm = true; o.storeDir = "/tmp/arenas"; o.traces = "a.trc" }, "-prewarm"},
		{"prewarm with seeds", func(o *options) { o.prewarm = true; o.storeDir = "/tmp/arenas"; o.seeds = 3 }, "-seeds"},
		{"sample exp ok", func(o *options) { o.exp = "all"; o.sample = "1/8" }, ""},
		{"sample mix ok", func(o *options) { o.mix = "445+456"; o.sample = "1/16" }, ""},
		{"sample off ok", func(o *options) { o.exp = "fig8"; o.sample = "off" }, ""},
		{"sample with store ok", func(o *options) { o.exp = "all"; o.sample = "1/8"; o.storeDir = "/tmp/arenas" }, ""},
		{"sample bad grammar", func(o *options) { o.exp = "fig8"; o.sample = "8" }, "-sample"},
		{"sample 1/1", func(o *options) { o.exp = "fig8"; o.sample = "1/1" }, "-sample"},
		{"sample 2/8", func(o *options) { o.exp = "fig8"; o.sample = "2/8" }, "-sample"},
		{"sample with trace", func(o *options) { o.traces = "a.trc"; o.sample = "1/8" }, "-sample"},
		{"sample with prewarm", func(o *options) { o.prewarm = true; o.storeDir = "/tmp/arenas"; o.sample = "1/8" }, "-prewarm"},
		{"sample with exp prefetch", func(o *options) { o.exp = "prefetch"; o.sample = "1/8" }, "prefetch"},
		{"sample with exp sampling", func(o *options) { o.exp = "sampling"; o.sample = "1/8" }, "-exp sampling"},
		{"trace cache budget with trace", func(o *options) { o.traces = "a.trc"; o.traceMB = 7 }, "-trace-cache-mb"},
		{"arena store with trace", func(o *options) { o.traces = "a.trc"; o.storeDir = "/tmp/arenas" }, "-arena-store"},
		{"arena store off with trace ok", func(o *options) { o.traces = "a.trc"; o.storeDir = "" }, ""},
	}
	for _, tc := range cases {
		o := base()
		tc.mutate(&o)
		err := o.validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted, want error mentioning %q", tc.name, tc.wantErr)
		} else if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestConfigBudgetRescale checks the scale-relative instruction budgets that
// used to divide by zero at -scale 0 (now rejected by validate).
func TestConfigBudgetRescale(t *testing.T) {
	o := base()
	o.scale = 4
	cfg := o.config()
	if cfg.Scale != 4 {
		t.Fatalf("scale %d", cfg.Scale)
	}
	def := base().config()
	if cfg.WarmupInstr != def.WarmupInstr*2 || cfg.MeasureInstr != def.MeasureInstr*2 {
		t.Fatalf("budgets not rescaled: %d/%d vs default %d/%d",
			cfg.WarmupInstr, cfg.MeasureInstr, def.WarmupInstr, def.MeasureInstr)
	}
	o = base()
	o.warmup, o.measure = 111, 222
	cfg = o.config()
	if cfg.WarmupInstr != 111 || cfg.MeasureInstr != 222 {
		t.Fatalf("explicit budgets not honoured: %d/%d", cfg.WarmupInstr, cfg.MeasureInstr)
	}
	o = base()
	o.parallel = 3
	if o.config().Parallel != 3 {
		t.Fatal("parallel not propagated to the config")
	}
}

// TestConfigScaleout pins the -cores plumbing into the harness
// configuration.
func TestConfigScaleout(t *testing.T) {
	if cfg := base().config(); cfg.Cores != 0 {
		t.Fatalf("default -cores not neutral: %d", cfg.Cores)
	}
	o := base()
	o.cores = 64
	if cfg := o.config(); cfg.Cores != 64 {
		t.Fatalf("-cores not propagated: %d", cfg.Cores)
	}
}

// TestConfigSample pins the -sample plumbing: the validated ratio reaches
// Config.SampleDen, and the default stays full fidelity.
func TestConfigSample(t *testing.T) {
	if got := base().config().SampleDen; got != 0 {
		t.Fatalf("default config SampleDen = %d, want 0 (full fidelity)", got)
	}
	o := base()
	o.sample = "1/8"
	if got := o.config().SampleDen; got != 8 {
		t.Fatalf("-sample 1/8 propagated as SampleDen %d", got)
	}
	o.sample = "off"
	if got := o.config().SampleDen; got != 0 {
		t.Fatalf("-sample off propagated as SampleDen %d", got)
	}
}

// TestStoreFlag pins the -arena-store value grammar: bare/on resolves to
// the conventional per-user root, off-ish spellings disable, anything else
// is the root itself; and the resolved directory reaches the harness
// configuration.
func TestStoreFlag(t *testing.T) {
	set := func(v string) (string, error) {
		dir := "sentinel"
		err := storeFlag{&dir}.Set(v)
		return dir, err
	}
	for _, v := range []string{"off", "false", "no", "0", "OFF"} {
		if dir, err := set(v); err != nil || dir != "" {
			t.Errorf("Set(%q) = %q, %v; want store disabled", v, dir, err)
		}
	}
	for _, v := range []string{"", "on", "true", "yes", "1"} {
		dir, err := set(v)
		if err != nil {
			continue // no resolvable user cache dir on this host: error is the contract
		}
		if dir == "" || dir == "sentinel" {
			t.Errorf("Set(%q) = %q; want the default store root", v, dir)
		}
	}
	if dir, err := set("/data/arenas"); err != nil || dir != "/data/arenas" {
		t.Errorf("Set(dir) = %q, %v; want the literal directory", dir, err)
	}

	o := base()
	o.storeDir = "/data/arenas"
	if got := o.config().ArenaStoreDir; got != "/data/arenas" {
		t.Fatalf("-arena-store not propagated to the config: %q", got)
	}
	if got := base().config().ArenaStoreDir; got != "" {
		t.Fatalf("store on by default: %q", got)
	}
}

// TestTimingWriter pins the -timing output routing: interleaved with the
// tables on stdout for humans, but diverted to stderr under the
// machine-readable formats so `asccbench -exp all -format csv -timing
// > out.csv` still yields a clean stream.
func TestTimingWriter(t *testing.T) {
	o := base()
	if o.timingWriter() != os.Stdout {
		t.Error("text-format timing must go to stdout")
	}
	for _, f := range []string{"csv", "json"} {
		o.format = f
		if o.timingWriter() != os.Stderr {
			t.Errorf("%s-format timing must go to stderr", f)
		}
	}
}

// TestPeakRSS: where the host has /proc/self/status, -timing's peak RSS
// parses its VmHWM line to a positive figure.
func TestPeakRSS(t *testing.T) {
	if _, err := os.Stat("/proc/self/status"); err != nil {
		t.Skip("no /proc/self/status on this host")
	}
	if mb, ok := peakRSSMB(); !ok || mb <= 0 {
		t.Fatalf("peakRSSMB() = %.1f, %v; want a positive figure", mb, ok)
	}
}

// TestRunBadScale: a -scale that leaves a cache with a fractional line or
// a non-power-of-two set count fails before any simulation, with an error
// that names the flag.
func TestRunBadScale(t *testing.T) {
	for _, exp := range []string{"mt", "table4"} {
		o := base()
		o.exp, o.scale = exp, 3
		o.warmup, o.measure = 1000, 1000
		if err := run(o); err == nil || !strings.Contains(err.Error(), "-scale 3 does not fit the cache geometry") {
			t.Errorf("-exp %s -scale 3: error %v, want the -scale geometry error", exp, err)
		}
	}
}

func TestParseMix(t *testing.T) {
	ids, err := parseMix("445+401+444+456")
	if err != nil || len(ids) != 4 || ids[0] != 445 || ids[3] != 456 {
		t.Fatalf("parseMix = %v, %v", ids, err)
	}
	if _, err := parseMix("445+abc"); err == nil {
		t.Fatal("bad mix element accepted")
	}
}
