package cmp

import (
	"reflect"
	"testing"

	"ascc/internal/cachesim"
	"ascc/internal/coop"
	"ascc/internal/policies"
	"ascc/internal/ssl"
	"ascc/internal/trace"
)

// TestScaleSampled checks the sampled-run reconstruction against hand-
// computed values: the BaseCPI share of the cycles stays, the memory share
// and every traffic counter scale by the denominator, and instruction counts
// are left alone. Both machines, built by their constructors, share the
// arithmetic.
func TestScaleSampled(t *testing.T) {
	timing := []CoreTiming{{BaseCPI: 2, Overlap: 0.5}, {BaseCPI: 1, Overlap: 0.5}}
	raw := Results{Policy: "p", Cores: []CoreStats{
		{
			Instructions: 100, Cycles: 500,
			L1Accesses: 1, L1Hits: 2, L2Accesses: 3, L2LocalHits: 4, L2RemoteHits: 5, L2MemFills: 6,
			LatencySum: 1.5, QueueDelay: 0.25,
			Writebacks: 7, OffChip: 8, SpillsOut: 9, SpillsIn: 10, Swaps: 11, SpillHits: 12,
			PrefIssued: 13, PrefUseful: 14, BusTransfers: 15,
		},
		{Instructions: 10, Cycles: 10},
	}}
	want := Results{Policy: "p", Cores: []CoreStats{
		{
			Instructions: 100, Cycles: 200 + 300*4,
			L1Accesses: 4, L1Hits: 8, L2Accesses: 12, L2LocalHits: 16, L2RemoteHits: 20, L2MemFills: 24,
			LatencySum: 6, QueueDelay: 1,
			Writebacks: 28, OffChip: 32, SpillsOut: 36, SpillsIn: 40, Swaps: 44, SpillHits: 48,
			PrefIssued: 52, PrefUseful: 56, BusTransfers: 60,
		},
		{Instructions: 10, Cycles: 10}, // all BaseCPI: nothing to scale
	}}
	p := sampleFuzzParams(2)
	p.SampleDen = 4
	gens := []trace.Generator{&scriptGen{name: "a", refs: []trace.Ref{{}}}, &scriptGen{name: "b", refs: []trace.Ref{{}}}}
	priv, err := New(p, gens, timing, policies.NewBaseline())
	if err != nil {
		t.Fatal(err)
	}
	shared, err := NewShared(p, gens, timing)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]Results{"private": priv.ScaleSampled(raw), "shared": shared.ScaleSampled(raw)} {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: ScaleSampled\ngot  %+v\nwant %+v", name, got, want)
		}
	}
	if raw.Cores[0].Cycles != 500 {
		t.Fatal("ScaleSampled mutated its input")
	}
	full := &System{p: Params{SampleDen: 1}, timing: timing}
	if got := full.ScaleSampled(raw); !reflect.DeepEqual(got, raw) {
		t.Errorf("full-fidelity ScaleSampled is not the identity: %+v", got)
	}
}

// setRecorder is a policy that records the (core, set) of its last call and
// answers with values the forwarding test can tell apart.
type setRecorder struct {
	coop.Base
	c, set int
	calls  int
	allow  func(int) bool
}

func (r *setRecorder) saw(c, set int) { r.c, r.set, r.calls = c, set, r.calls+1 }

func (r *setRecorder) Name() string                    { return "recorder" }
func (r *setRecorder) OnL2Access(c, set int, hit bool) { r.saw(c, set) }
func (r *setRecorder) Role(c, set int) ssl.Role        { r.saw(c, set); return ssl.Spiller }
func (r *setRecorder) Receivers(c, set int) []int      { r.saw(c, set); return []int{set} }
func (r *setRecorder) OnSpillFail(c, set int)          { r.saw(c, set) }
func (r *setRecorder) InsertPos(c, set int) cachesim.InsertPos {
	r.saw(c, set)
	return cachesim.InsertLRU
}
func (r *setRecorder) SpillInsertPos(c, set int, guestReused bool) cachesim.InsertPos {
	r.saw(c, set)
	if guestReused {
		return cachesim.InsertMRU
	}
	return cachesim.InsertLRU
}
func (r *setRecorder) DemandVictimAllow(c, set int) func(int) bool { r.saw(c, set); return r.allow }
func (r *setRecorder) SpillVictimAllow(c, set int) func(int) bool  { r.saw(c, set); return r.allow }

// TestSampledPolicyForwards checks that every set-taking Policy method of
// the sampled wrapper reaches the wrapped policy with the full-geometry set
// index (and the caller's core), and passes the answer back unchanged.
func TestSampledPolicyForwards(t *testing.T) {
	p := sampleFuzzParams(2)
	p.SampleDen = 4
	spec, err := p.SampleSpec()
	if err != nil {
		t.Fatal(err)
	}
	inner := &setRecorder{allow: func(w int) bool { return w == 1 }}
	w := wrapSampledPolicy(inner, spec)
	if w.Name() != "recorder" {
		t.Fatalf("set-free method not passed through: Name() = %q", w.Name())
	}
	for cs := 0; cs < spec.CompactSets(); cs++ {
		full := spec.OrigSet(cs)
		calls := []struct {
			name string
			call func() any
			want any
		}{
			{"OnL2Access", func() any { w.OnL2Access(1, cs, true); return nil }, nil},
			{"Role", func() any { return w.Role(1, cs) }, ssl.Spiller},
			{"Receivers", func() any { return w.Receivers(1, cs) }, []int{full}},
			{"OnSpillFail", func() any { w.OnSpillFail(1, cs); return nil }, nil},
			{"InsertPos", func() any { return w.InsertPos(1, cs) }, cachesim.InsertLRU},
			{"SpillInsertPos", func() any { return w.SpillInsertPos(1, cs, true) }, cachesim.InsertMRU},
			{"DemandVictimAllow", func() any { return w.DemandVictimAllow(1, cs)(1) }, true},
			{"SpillVictimAllow", func() any { return w.SpillVictimAllow(1, cs)(0) }, false},
		}
		for _, c := range calls {
			before := inner.calls
			if got := c.call(); !reflect.DeepEqual(got, c.want) {
				t.Errorf("%s(1, %d) = %v, want %v", c.name, cs, got, c.want)
			}
			if inner.calls != before+1 || inner.c != 1 || inner.set != full {
				t.Errorf("%s(1, %d) reached the policy as (%d, %d) after %d calls, want (1, %d) once",
					c.name, cs, inner.c, inner.set, inner.calls-before, full)
			}
		}
	}
}
