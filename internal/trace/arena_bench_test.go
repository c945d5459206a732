package trace

import "testing"

// BenchmarkStreamThroughput compares the two ways a reference stream can
// reach the simulator: live generation (Zipf sampling, random walks, RNG
// draws per reference) versus packed arena replay (a straight decode of one
// 32-bit short record per reference). The ratio is the per-reference
// synthesis cost the arena cache removes from every run after the first.
func BenchmarkStreamThroughput(b *testing.B) {
	const batch = 256

	b.Run("live", func(b *testing.B) {
		g := testComposite(9)
		buf := make([]Ref, batch)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.NextBatch(buf)
		}
		b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "refs/s")
	})

	b.Run("replay", func(b *testing.B) {
		// Pack a bounded prefix up front and rewind with fresh replayers so
		// the measurement is pure decode, never extension, at fixed memory.
		const prefill = 1 << 21
		a := NewArena(testComposite(9))
		a.Extend(prefill + batch)
		rp := a.NewReplayer()
		buf := make([]Ref, batch)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rp.refPos+batch > prefill {
				rp = a.NewReplayer()
			}
			rp.NextBatch(buf)
		}
		b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "refs/s")
	})
}

// BenchmarkSampledStream measures the two halves of the set-sampled fast
// path (DESIGN.md §16) at the scale-8 geometry with 1/8 sampling: "filter"
// is the one-time pass that derives the filtered stream from a packed full
// arena (decode + residue test + gap merge + rewrite), "replay" is the
// steady state every subsequent run pays — straight decode of the cached
// sampled sub-arena, where each reference stands for ~Den source references.
func BenchmarkSampledStream(b *testing.B) {
	const batch = 256
	spec, err := NewSampleSpec(512, 32, 32, 8, 16)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("filter", func(b *testing.B) {
		const prefill = 1 << 21 // source references packed up front
		a := NewArena(testComposite(9))
		a.Extend(uint64(prefill + spec.Den*batch))
		// Rewind with a fresh view well before the filter could consume the
		// prefix, so the loop never measures source extension.
		perView := prefill / (batch * 2 * spec.Den)
		v := spec.View(a.NewReplayer())
		buf := make([]Ref, batch)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%perView == perView-1 {
				v = spec.View(a.NewReplayer())
			}
			v.NextBatch(buf)
		}
		b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "refs/s")
	})

	b.Run("replay", func(b *testing.B) {
		const prefill = 1 << 18 // sampled references packed up front
		src := NewArena(testComposite(9))
		sa := NewArena(spec.View(src.NewReplayer()))
		sa.Extend(prefill + batch)
		rp := sa.NewReplayer()
		buf := make([]Ref, batch)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rp.refPos+batch > prefill {
				rp = sa.NewReplayer()
			}
			rp.NextBatch(buf)
		}
		b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "refs/s")
	})
}
