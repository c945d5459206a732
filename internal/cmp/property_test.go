package cmp

import (
	"testing"
	"testing/quick"

	"ascc/internal/cachesim"
	"ascc/internal/coop"
	"ascc/internal/policies"
	"ascc/internal/rng"
	"ascc/internal/trace"
)

// newAVGCC builds AVGCC, or QoS-AVGCC with qos set, the way the harness
// registry does: the published configuration through NewASCCVariant.
func newAVGCC(cores, sets, ways int, seed uint64, qos bool) coop.Policy {
	cfg := policies.AVGCCDefaultConfig(cores, sets, ways, seed)
	if qos {
		cfg.QoS = true
		return policies.NewASCCVariant("QoS-AVGCC", cfg)
	}
	return policies.NewASCCVariant("AVGCC", cfg)
}

// randGen produces a randomised but deterministic reference pattern that
// mixes small loops, shared blocks and writes — enough to exercise every
// engine path.
type randGen struct {
	r *rng.Xoshiro256
}

func (g *randGen) Name() string { return "rand" }

func (g *randGen) NextBatch(buf []trace.Ref) {
	for i := range buf {
		buf[i] = g.Next()
	}
}
func (g *randGen) Next() trace.Ref {
	// Blocks 0..63 are shared across cores; a per-core region sits higher.
	var addr uint64
	switch g.r.Intn(3) {
	case 0:
		addr = uint64(g.r.Intn(64)) * 32
	case 1:
		addr = 1<<20 + uint64(g.r.Intn(256))*32
	default:
		addr = 1<<30 + uint64(g.r.Intn(4096))*32
	}
	return trace.Ref{
		Addr:  addr,
		Write: g.r.Bernoulli(0.25),
		Gap:   int32(g.r.Intn(8)),
	}
}

// checkSystemInvariants verifies the structural invariants every run must
// uphold regardless of policy:
//  1. inclusion: every L1 line is present in the same core's L2;
//  2. single-writer: a dirty block lives in at most one L2;
//  3. conservation: local hits + remote hits + memory fills = L2 accesses.
func checkSystemInvariants(t *testing.T, sys *System, res Results, label string) {
	t.Helper()
	cores := len(res.Cores)
	for c := 0; c < cores; c++ {
		c := c
		sys.l1s[c].ForEachLine(func(si, w int, l *cachesim.Line) {
			if _, ok := sys.l2s[c].Lookup(l.Tag); !ok {
				t.Errorf("%s: core %d: inclusion violated for block %#x", label, c, l.Tag)
			}
		})
	}
	dirty := map[uint64]int{}
	for c := 0; c < cores; c++ {
		sys.l2s[c].ForEachLine(func(si, w int, l *cachesim.Line) {
			if l.Dirty {
				dirty[l.Tag]++
			}
		})
	}
	for tag, n := range dirty {
		if n > 1 {
			t.Errorf("%s: dirty block %#x in %d caches", label, tag, n)
		}
	}
	for i, c := range res.Cores {
		if c.L2Accesses != c.L2LocalHits+c.L2RemoteHits+c.L2MemFills {
			t.Errorf("%s: core %d: conservation broken (%d != %d+%d+%d)",
				label, i, c.L2Accesses, c.L2LocalHits, c.L2RemoteHits, c.L2MemFills)
		}
	}
}

// TestEngineInvariantsAcrossPolicies fuzzes every policy with randomised
// shared/private reference mixes and checks the structural invariants.
func TestEngineInvariantsAcrossPolicies(t *testing.T) {
	mkPolicies := func(cores, sets, ways int, seed uint64) []coop.Policy {
		published := func(name string) coop.Policy {
			cfg, _ := policies.Published(name, cores, sets, ways, seed)
			return policies.NewASCCVariant(name, cfg)
		}
		return []coop.Policy{
			policies.NewBaseline(),
			policies.NewCC(cores, seed),
			policies.NewDSR(cores, sets, ways, seed),
			policies.NewDSRDIP(cores, sets, ways, seed),
			policies.NewDSR3S(cores, sets, ways, seed),
			policies.NewECC(cores, sets, ways, seed),
			newASCC(cores, sets, ways, seed),
			published("ASCC-2S"),
			newAVGCC(cores, sets, ways, seed, false),
			newAVGCC(cores, sets, ways, seed, true),
			published("LRS"),
		}
	}
	f := func(seed uint64) bool {
		p := tinyParams(3)
		sets := p.L2.SizeBytes / p.L2.LineBytes / p.L2.Ways
		ok := true
		for _, pol := range mkPolicies(3, sets, p.L2.Ways, seed) {
			gens := make([]trace.Generator, 3)
			for i := range gens {
				gens[i] = &randGen{r: rng.New(rng.Mix64(seed + uint64(i)))}
			}
			sys, err := New(p, gens, evenTiming(3), pol)
			if err != nil {
				t.Errorf("%s: %v", pol.Name(), err)
				return false
			}
			res := sys.Run(2000, 6000)
			before := t.Failed()
			checkSystemInvariants(t, sys, res, pol.Name())
			if !before && t.Failed() {
				ok = false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestPrefetchInvariants runs the fuzz with the prefetcher enabled.
func TestPrefetchInvariants(t *testing.T) {
	p := tinyParams(2)
	p.Prefetch = true
	sets := p.L2.SizeBytes / p.L2.LineBytes / p.L2.Ways
	gens := []trace.Generator{
		&randGen{r: rng.New(1)},
		&randGen{r: rng.New(2)},
	}
	sys, _ := New(p, gens, evenTiming(2), newAVGCC(2, sets, p.L2.Ways, 3, false))
	res := sys.Run(3000, 9000)
	checkSystemInvariants(t, sys, res, "AVGCC+prefetch")
}
