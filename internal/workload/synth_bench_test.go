package workload

import (
	"testing"

	"ascc/internal/cmp"
	"ascc/internal/trace"
)

// BenchmarkProfileSynthesis measures the stream set-up path over the 13
// scale-8 profiles, in ns per reference:
//
//   - live: Composite.NextBatch alone (component synthesis);
//   - extend: Arena.Extend of a fresh arena (synthesis plus packing), the
//     figure behind perfbench's trace.synth_mrefs_per_s;
//   - view: extending a sub-arena through the default 4-core machine's 1/8
//     View of a packed parent arena (decode, filter, rewrite and pack), per
//     parent reference consumed — trace.filter_mrefs_per_s.
func BenchmarkProfileSynthesis(b *testing.B) {
	const refs = 1 << 16 // per profile and iteration (live, extend)
	fresh := func() []trace.Generator {
		gens := make([]trace.Generator, 0, len(Profiles()))
		for _, p := range Profiles() {
			gs, _, err := BuildMix([]int{p.ID}, 1, 8)
			if err != nil {
				b.Fatal(err)
			}
			gens = append(gens, gs[0])
		}
		return gens
	}

	b.Run("live", func(b *testing.B) {
		gens := fresh()
		buf := make([]trace.Ref, 256)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, g := range gens {
				for n := 0; n < refs; n += len(buf) {
					g.NextBatch(buf)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(gens)*refs), "ns/ref")
	})

	b.Run("extend", func(b *testing.B) {
		var total uint64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			gens := fresh()
			b.StartTimer()
			for _, g := range gens {
				a := trace.NewArena(g)
				a.Extend(refs)
				total += a.Refs()
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total), "ns/ref")
	})

	b.Run("view", func(b *testing.B) {
		// Parents are packed once, past what the views consume, so the
		// timed loop never synthesises.
		const parentRefs, subRefs = 1 << 18, 1 << 13
		params := cmp.DefaultParams(4, 8)
		params.SampleDen = 8
		spec, err := params.SampleSpec()
		if err != nil {
			b.Fatal(err)
		}
		var parents []*trace.Arena
		for _, g := range fresh() {
			a := trace.NewArena(g)
			a.Extend(parentRefs)
			parents = append(parents, a)
		}
		b.ResetTimer()
		var consumed uint64
		for i := 0; i < b.N; i++ {
			for _, a := range parents {
				src := &trace.Counted{Generator: a.NewReplayer()}
				trace.NewArena(spec.View(src)).Extend(subRefs)
				consumed += src.N
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(consumed), "ns/ref")
		for _, a := range parents {
			if a.Refs() > parentRefs+1<<14 {
				b.Fatalf("%s: the view outran its packed parent (%d refs)", a.Name(), a.Refs())
			}
		}
	})
}
