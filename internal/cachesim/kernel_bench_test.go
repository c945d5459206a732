// Kernel-level throughput benchmarks: the packed cachesim kernel against
// the frozen reference implementation (internal/cachesim/refmodel), which
// is the pre-rewrite kernel verbatim. Because the oracle doubles as the
// before-baseline, the speedup of the rewrite is measurable from a single
// run with no historical checkout. BenchmarkGroupDemand64 times the L2 +
// directory layer of the 64-core machine on its own:
//
//	go test ./internal/cachesim -run '^$' -bench . -benchmem
//
// `make bench` compiles and runs these once alongside every other
// microbenchmark; the repository benchmark is perfbench.
package cachesim_test

import (
	"testing"

	"ascc/internal/cachesim"
	"ascc/internal/cachesim/refmodel"
	"ascc/internal/rng"
)

// benchGeometry is the paper's per-core L2: 256KB, 8-way, 64B lines —
// 512 sets, the configuration the simulator spends most of its time in.
var benchGeometry = cachesim.Config{SizeBytes: 256 << 10, Ways: 8, LineBytes: 64}

// demandCache is the surface shared by the packed kernel and the reference
// model that the benchmarks drive.
type demandCache interface {
	Access(block uint64) (way int, hit bool)
	Insert(block uint64, pos cachesim.InsertPos, proto cachesim.Line) cachesim.Line
}

// benchTrace builds a deterministic demand stream with roughly a 70% hit
// rate at steady state: 3 of 4 references draw from a working set half the
// cache's size, the rest stream through a space 64x the cache.
func benchTrace(n int) []uint64 {
	const (
		hot  = 2048   // blocks; half of the 4096-line cache
		cold = 262144 // blocks; 64x the cache
	)
	// SplitMix64 step — self-contained so the trace never changes under us.
	seed := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	tr := make([]uint64, n)
	for i := range tr {
		r := next()
		if r&3 != 0 {
			tr[i] = r >> 2 % hot
		} else {
			tr[i] = hot + r>>2%cold
		}
	}
	return tr
}

// runDemand replays the trace against c: every reference is an Access, and
// every miss fills with an MRU insertion — the canonical demand loop every
// experiment reduces to.
func runDemand(b *testing.B, c demandCache, tr []uint64) {
	b.Helper()
	proto := cachesim.Line{State: cachesim.Exclusive}
	// Warm up so the steady-state hit rate applies from iteration one.
	for _, a := range tr {
		if _, hit := c.Access(a); !hit {
			c.Insert(a, cachesim.InsertMRU, proto)
		}
	}
	mask := len(tr) - 1 // len(tr) is a power of two
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := tr[i&mask]
		if _, hit := c.Access(a); !hit {
			c.Insert(a, cachesim.InsertMRU, proto)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "blocks/s")
}

// BenchmarkKernelThroughput is the headline kernel benchmark: blocks
// demanded per second through Access + miss-fill Insert on the paper's L2
// geometry, packed kernel versus the pre-rewrite reference kernel.
func BenchmarkKernelThroughput(b *testing.B) {
	tr := benchTrace(1 << 16)
	b.Run("packed", func(b *testing.B) {
		runDemand(b, cachesim.New(benchGeometry), tr)
	})
	b.Run("ref", func(b *testing.B) {
		runDemand(b, refmodel.New(benchGeometry), tr)
	})
}

// BenchmarkAccessHit isolates the hit path: every reference hits, so this
// measures probe + MRU promotion alone.
func BenchmarkAccessHit(b *testing.B) {
	run := func(b *testing.B, c demandCache) {
		proto := cachesim.Line{State: cachesim.Exclusive}
		for blk := uint64(0); blk < 4096; blk++ {
			c.Insert(blk, cachesim.InsertMRU, proto)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Multiplicative-hash walk over the resident blocks: the hit
			// way is unpredictable, as in real traffic, so early-exit
			// probes cannot ride a trained branch predictor.
			blk := uint64(i) * 2654435761 & 4095
			if _, hit := c.Access(blk); !hit {
				b.Fatalf("unexpected miss on block %d", blk)
			}
		}
	}
	b.Run("packed", func(b *testing.B) { run(b, cachesim.New(benchGeometry)) })
	b.Run("ref", func(b *testing.B) { run(b, refmodel.New(benchGeometry)) })
}

// BenchmarkInsertEvict isolates the fill path: every reference misses, so
// this measures victim selection + insertion with eviction.
func BenchmarkInsertEvict(b *testing.B) {
	run := func(b *testing.B, c demandCache) {
		proto := cachesim.Line{State: cachesim.Exclusive}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			blk := uint64(i) // strictly increasing: never hits
			if _, hit := c.Access(blk); hit {
				b.Fatalf("unexpected hit on block %d", blk)
			}
			c.Insert(blk, cachesim.InsertMRU, proto)
		}
	}
	b.Run("packed", func(b *testing.B) { run(b, cachesim.New(benchGeometry)) })
	b.Run("ref", func(b *testing.B) { run(b, refmodel.New(benchGeometry)) })
}

// BenchmarkGroupDemand64 is the L2 + directory layer in its memory-bound
// regime: DemandAccess over the 64 L2s of the scaleout machine at scale 8
// (128 KiB, 8 ways, 32-byte lines each: 4 MiB of line rows and 1 MiB of
// set metadata plus a 4.5 MiB directory, past the host caches). Every line
// of every member holds a distinct block. Each op picks a random member
// and, with equal odds, one of its own blocks (a local hit: line row and
// set metadata) or a random peer's (a miss: the member's row and metadata,
// one directory lookup, then the holder's row and metadata). No op fills,
// so the state stays full and every op is one of those two paths.
func BenchmarkGroupDemand64(b *testing.B) {
	const members, lines = 64, 4096
	g := cachesim.NewGroup(members, cachesim.Config{SizeBytes: 128 << 10, Ways: 8, LineBytes: 32})
	defer g.Release()
	g.EnableDirectory()
	// Member c's block i is c*lines+i, in set i%512 of member c: every way
	// of every set fills.
	for c := 0; c < members; c++ {
		for i := 0; i < lines; i++ {
			g.Cache(c).Insert(uint64(c*lines+i), cachesim.InsertMRU, cachesim.Line{State: cachesim.Exclusive, Owner: int16(c)})
		}
	}
	type op struct {
		c     int
		block uint64
	}
	r := rng.New(0x64d)
	ops := make([]op, 1<<16)
	for i := range ops {
		c := int(r.Uint64() % members)
		owner := c
		if r.Uint64()&1 == 0 {
			owner = int(r.Uint64() % members)
		}
		ops[i] = op{c, uint64(owner*lines) + r.Uint64()%lines}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		o := ops[i&(len(ops)-1)]
		_, _, holders, hway := g.DemandAccess(o.c, o.block)
		sink += holders + uint64(hway)
	}
	b.StopTimer() // the deferred Release is not part of the op
	groupSink = sink
}

var groupSink uint64
