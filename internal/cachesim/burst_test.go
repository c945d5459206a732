package cachesim

import (
	"math"
	"reflect"
	"testing"

	"ascc/internal/trace"
)

// burstGeometries returns one cache per kernel path: the specialized packed
// 4-way loop, the generic packed loop (2-way) and the wide fallback (fully
// associative). Every behavioural test below runs over all three.
func burstGeometries() []struct {
	name string
	cfg  Config
} {
	return []struct {
		name string
		cfg  Config
	}{
		{"packed-4way", Config{SizeBytes: 512, Ways: 4, LineBytes: 32}},
		{"packed-2way", Config{SizeBytes: 256, Ways: 2, LineBytes: 32}},
		{"wide", Config{SizeBytes: 1 << 10, Ways: 8, LineBytes: 32, FullyAssoc: true}},
	}
}

const burstShift = 5 // 32-byte lines throughout

// ref builds a batch reference to a block.
func bref(block uint64, gap int32, write bool) trace.Ref {
	return trace.Ref{Addr: block << burstShift, Gap: gap, Write: write}
}

// preload makes blocks resident in state st.
func preload(c *Cache, st LineState, blocks ...uint64) {
	for _, b := range blocks {
		c.Insert(b, InsertMRU, Line{State: st})
	}
}

func TestBurstBatchEnd(t *testing.T) {
	for _, g := range burstGeometries() {
		t.Run(g.name, func(t *testing.T) {
			c := New(g.cfg)
			preload(c, Exclusive, 1, 2)
			refs := []trace.Ref{bref(1, 0, false), bref(2, 3, false), bref(1, 1, false)}
			bt := &trace.Batch{Refs: refs}
			ev, instr, clock, hits, _, _, _ :=
				c.ReadBurst(bt, burstShift, 2.0, math.MaxUint64, math.Inf(1), 10, 5)
			if ev != BurstBatchEnd {
				t.Fatalf("event %v, want batch-end", ev)
			}
			if bt.Pos != len(refs) || hits != 3 {
				t.Fatalf("pos %d hits %d, want 3/3", bt.Pos, hits)
			}
			// gaps 0,3,1 -> 1+4+2 = 7 instructions at CPI 2.
			if instr != 10+7 || clock != 5+7*2.0 {
				t.Fatalf("instr %d clock %v, want 17/19", instr, clock)
			}
		})
	}
}

func TestBurstMiss(t *testing.T) {
	for _, g := range burstGeometries() {
		t.Run(g.name, func(t *testing.T) {
			c := New(g.cfg)
			preload(c, Exclusive, 1)
			bt := &trace.Batch{Refs: []trace.Ref{bref(1, 0, false), bref(3, 2, true), bref(1, 0, false)}}
			ev, instr, clock, hits, block, _, write :=
				c.ReadBurst(bt, burstShift, 1.0, math.MaxUint64, math.Inf(1), 0, 0)
			if ev != BurstMiss {
				t.Fatalf("event %v, want miss", ev)
			}
			// The missing reference is consumed: its instruction gap is
			// accounted and the cursor sits past it, but it does not count as
			// a hit; the trailing reference is untouched.
			if bt.Pos != 2 || hits != 1 {
				t.Fatalf("pos %d hits %d, want 2/1", bt.Pos, hits)
			}
			if block != 3 || !write {
				t.Fatalf("event block %d write %v, want 3/true", block, write)
			}
			if instr != 4 || clock != 4 {
				t.Fatalf("instr %d clock %v, want 4/4", instr, clock)
			}
			si := c.SetIndex(3)
			if st := c.SetStatsFor(si); st.Misses != 1 {
				t.Fatalf("miss not counted in set %d: %+v", si, st)
			}
		})
	}
}

func TestBurstUpgrade(t *testing.T) {
	for _, g := range burstGeometries() {
		t.Run(g.name, func(t *testing.T) {
			c := New(g.cfg)
			preload(c, Exclusive, 1)
			wantWay, _ := c.Lookup(1)
			bt := &trace.Batch{Refs: []trace.Ref{bref(1, 0, true), bref(1, 0, false)}}
			ev, _, _, hits, block, way, _ :=
				c.ReadBurst(bt, burstShift, 1.0, math.MaxUint64, math.Inf(1), 0, 0)
			if ev != BurstUpgrade {
				t.Fatalf("event %v, want upgrade", ev)
			}
			// A store-upgrade is a hit — counted, promoted to MRU — whose
			// write-through and state transition the caller owes; the kernel
			// itself must not touch the line state.
			if hits != 1 || bt.Pos != 1 {
				t.Fatalf("hits %d pos %d, want 1/1", hits, bt.Pos)
			}
			if block != 1 || way != wantWay {
				t.Fatalf("event block %d way %d, want 1/%d", block, way, wantWay)
			}
			if st := c.Line(c.SetIndex(1), way).State; st != Exclusive {
				t.Fatalf("kernel changed line state to %v", st)
			}
			// Stores to already-Modified lines burst straight through.
			c.Line(c.SetIndex(1), way).State = Modified
			bt2 := &trace.Batch{Refs: []trace.Ref{bref(1, 0, true), bref(1, 0, true)}}
			ev, _, _, hits, _, _, _ =
				c.ReadBurst(bt2, burstShift, 1.0, math.MaxUint64, math.Inf(1), 0, 0)
			if ev != BurstBatchEnd || hits != 2 {
				t.Fatalf("modified-line stores: event %v hits %d, want batch-end/2", ev, hits)
			}
		})
	}
}

func TestBurstQuotaAndFrontier(t *testing.T) {
	for _, g := range burstGeometries() {
		t.Run(g.name, func(t *testing.T) {
			c := New(g.cfg)
			preload(c, Exclusive, 1)
			hits4 := []trace.Ref{bref(1, 0, false), bref(1, 0, false), bref(1, 0, false), bref(1, 0, false)}

			// Quota: each reference commits one instruction; quota 2 stops
			// after the second with the batch half-consumed.
			bt := &trace.Batch{Refs: hits4}
			ev, instr, _, hits, _, _, _ :=
				c.ReadBurst(bt, burstShift, 1.0, 2, math.Inf(1), 0, 0)
			if ev != BurstQuota || instr != 2 || hits != 2 || bt.Pos != 2 {
				t.Fatalf("quota: ev %v instr %d hits %d pos %d, want quota/2/2/2", ev, instr, hits, bt.Pos)
			}

			// Frontier: at CPI 1 the clock hits limit 3 after the third.
			bt = &trace.Batch{Refs: hits4}
			var clock float64
			ev, _, clock, hits, _, _, _ =
				c.ReadBurst(bt, burstShift, 1.0, math.MaxUint64, 3, 0, 0)
			if ev != BurstFrontier || clock != 3 || hits != 3 {
				t.Fatalf("frontier: ev %v clock %v hits %d, want frontier/3/3", ev, clock, hits)
			}

			// When one reference crosses both bounds, quota wins — the
			// per-reference loop's check order.
			bt = &trace.Batch{Refs: hits4}
			ev, _, _, _, _, _, _ =
				c.ReadBurst(bt, burstShift, 1.0, 1, 1, 0, 0)
			if ev != BurstQuota {
				t.Fatalf("priority: ev %v, want quota before frontier", ev)
			}
		})
	}
}

func TestBurstEventString(t *testing.T) {
	want := map[BurstEvent]string{
		BurstBatchEnd:  "batch-end",
		BurstMiss:      "miss",
		BurstUpgrade:   "upgrade",
		BurstQuota:     "quota",
		BurstFrontier:  "frontier",
		BurstEvent(99): "BurstEvent(?)",
	}
	for ev, s := range want {
		if ev.String() != s {
			t.Errorf("%d.String() = %q, want %q", ev, ev.String(), s)
		}
	}
}

// TestReadBurstAtStartClock: for a miss and an upgrade, ReadBurstAt also
// returns the clock the event reference started at — before its own
// instruction-gap add — which is what orders it against other cores.
func TestReadBurstAtStartClock(t *testing.T) {
	for _, g := range burstGeometries() {
		t.Run(g.name, func(t *testing.T) {
			c := New(g.cfg)
			preload(c, Exclusive, 1)
			bt := &trace.Batch{Refs: []trace.Ref{bref(1, 1, false), bref(3, 2, false), bref(1, 4, true)}}
			ev, _, clock, at, _, _, _, _ :=
				c.ReadBurstAt(bt, burstShift, 2.0, math.MaxUint64, math.Inf(1), 0, 10)
			if ev != BurstMiss || at != 14 || clock != 20 {
				t.Fatalf("miss: ev %v at %v clock %v, want miss/14/20", ev, at, clock)
			}
			c.Insert(3, InsertMRU, Line{State: Exclusive})
			ev, _, clock, at, _, _, _, _ =
				c.ReadBurstAt(bt, burstShift, 2.0, math.MaxUint64, math.Inf(1), 0, clock)
			if ev != BurstUpgrade || at != 20 || clock != 30 {
				t.Fatalf("upgrade: ev %v at %v clock %v, want upgrade/20/30", ev, at, clock)
			}
		})
	}
}

// TestCanReadAhead: only the specialised packed 4-way geometry runs ahead.
func TestCanReadAhead(t *testing.T) {
	for _, g := range burstGeometries() {
		if got, want := New(g.cfg).CanReadAhead(), g.name == "packed-4way"; got != want {
			t.Errorf("%s: CanReadAhead %v, want %v", g.name, got, want)
		}
	}
}

// readAheadCache is the packed 4-way geometry (4 sets) with blocks 1, 2, 5
// and 6 resident: 1 and 5 in set 1, 2 and 6 in set 2.
func readAheadCache() *Cache {
	c := New(Config{SizeBytes: 512, Ways: 4, LineBytes: 32})
	preload(c, Exclusive, 1, 2, 5, 6)
	return c
}

// TestReadAheadStopsBeforeEvents: ReadAhead consumes plain hits only and
// stops without consuming — no counter, recency or cursor change — at a
// miss, a store needing the upgrade, the reference that would reach the
// quota, and the batch end; the log holds exactly the consumed hits.
func TestReadAheadStopsBeforeEvents(t *testing.T) {
	cases := []struct {
		name  string
		last  trace.Ref
		quota uint64
	}{
		{"miss", bref(3, 0, false), math.MaxUint64},
		{"upgrade", bref(1, 0, true), math.MaxUint64},
		{"quota", bref(1, 0, false), 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := readAheadCache()
			want := readAheadCache()
			refs := []trace.Ref{bref(1, 0, false), bref(5, 0, false), tc.last, bref(2, 0, false)}
			bt := &trace.Batch{Refs: refs}
			var lg HitLog
			lg.Bind(bt, burstShift, 1.0, make([]uint64, len(refs)))
			instr, clock, hits := c.ReadAhead(&lg, tc.quota, 0, 0)
			if hits != 2 || bt.Pos != 2 || lg.Len() != 2 || instr != 2 || clock != 2 {
				t.Fatalf("hits %d pos %d logged %d instr %d clock %v, want 2/2/2/2/2",
					hits, bt.Pos, lg.Len(), instr, clock)
			}
			want.Access(1)
			want.Access(5)
			sameSets(t, c, want)
		})
	}
	c := readAheadCache()
	bt := &trace.Batch{Refs: []trace.Ref{bref(6, 0, false), bref(2, 0, false)}}
	var lg HitLog
	lg.Bind(bt, burstShift, 1.0, make([]uint64, 2))
	if _, _, hits := c.ReadAhead(&lg, math.MaxUint64, 0, 0); hits != 2 || bt.Pos != 2 {
		t.Fatalf("batch end: hits %d pos %d, want 2/2", hits, bt.Pos)
	}
	lg.Commit()
	if lg.Len() != 0 {
		t.Fatalf("committed log still holds %d hits", lg.Len())
	}
}

// sameSets demands identical set counters and recency stacks.
func sameSets(t *testing.T, got, want *Cache) {
	t.Helper()
	for si := 0; si < want.NumSets(); si++ {
		if a, b := got.SetStatsFor(si), want.SetStatsFor(si); a != b {
			t.Errorf("set %d stats %+v, want %+v", si, a, b)
		}
		if a, b := got.RecencyStack(si), want.RecencyStack(si); !reflect.DeepEqual(a, b) {
			t.Errorf("set %d recency %v, want %v", si, a, b)
		}
	}
}

// TestRewindBySet logs six hits over sets 1 and 2, starting at clocks
// 10..15, and rewinds them the way a peer's coherence actions would: from
// the first hit after the action's start clock in the action's set, with
// every later hit undone too. The cache must end exactly as if only the
// kept prefix had been consumed, and ClockAfter must name the first logged
// start after a given clock.
func TestRewindBySet(t *testing.T) {
	refs := []trace.Ref{
		bref(1, 0, false), bref(5, 0, false), bref(2, 0, false),
		bref(1, 0, false), bref(6, 0, false), bref(2, 0, false),
	}
	c := readAheadCache()
	bt := &trace.Batch{Refs: refs}
	var lg HitLog
	lg.Bind(bt, burstShift, 1.0, make([]uint64, len(refs)))
	if _, _, hits := c.ReadAhead(&lg, math.MaxUint64, 100, 10); hits != 6 {
		t.Fatalf("logged %d hits, want 6", hits)
	}

	for _, tc := range []struct {
		at    float64
		tie   bool
		clock float64
		ok    bool
	}{{12.5, false, 13, true}, {12, false, 13, true}, {12, true, 12, true}, {9, false, 10, true}, {15, false, 0, false}} {
		if clock, ok := lg.ClockAfter(tc.at, tc.tie); clock != tc.clock || ok != tc.ok {
			t.Errorf("ClockAfter(%v, %v) = %v, %v; want %v, %v", tc.at, tc.tie, clock, ok, tc.clock, tc.ok)
		}
	}

	// prefix is the cache that consumed only refs[:n].
	prefix := func(n int) *Cache {
		w := readAheadCache()
		for _, r := range refs[:n] {
			w.Access(r.Addr >> burstShift)
		}
		return w
	}
	steps := []struct {
		block         uint64
		at            float64
		undone, instr uint64
		clock         float64
		pos           int
	}{
		// Set 1 (block 9) after 11.5: block 1 at 13 is the first; the set-2
		// hits at 14 and 15 go with it.
		{9, 11.5, 3, 103, 13, 3},
		// Set 3 holds no logged hit: nothing to undo.
		{3, 0, 0, 0, 0, 3},
		// Set 2 after 10.5: block 2 at 12.
		{2, 10.5, 1, 102, 12, 2},
		// Set 1 after 11: block 5 starts at 11 and is not after it.
		{1, 11, 0, 0, 0, 2},
		// Set 1 after 9: everything.
		{5, 9, 2, 100, 10, 0},
	}
	for i, st := range steps {
		undone, instr, clock := c.Rewind(&lg, st.block, st.at, false)
		if undone != st.undone || (undone > 0 && (instr != st.instr || clock != st.clock)) || bt.Pos != st.pos {
			t.Fatalf("step %d: undone %d instr %d clock %v pos %d, want %d/%d/%v/%d",
				i, undone, instr, clock, bt.Pos, st.undone, st.instr, st.clock, st.pos)
		}
		if lg.Len() != st.pos {
			t.Fatalf("step %d: log holds %d hits, want %d", i, lg.Len(), st.pos)
		}
		sameSets(t, c, prefix(st.pos))
	}
}

// BenchmarkBurstThroughput measures the kernel on the workload it was built
// for — long runs of L1 hits — against per-reference stepping doing what
// the engine's per-reference loop did for each hit: the Access call, the
// CoreStats fields updated one reference at a time and the core clock
// published to its shared slot around the access (the frozen oracle in
// internal/cmp/refstep_test.go). The burst defers all of that to the event
// boundary, so on hit-heavy streams the gap here is the engine's per-hit
// overhead; the end-to-end BenchmarkPhase pair in internal/cmp shows how
// much survives on the miss-heavy scale-8 mixes, whose events cut bursts
// short every ~1.2 references.
func BenchmarkBurstThroughput(b *testing.B) {
	cfg := Config{SizeBytes: 64 * 4 * 32, Ways: 4, LineBytes: 32}
	const resident = 128 // half the ways of every set stay valid
	refs := make([]trace.Ref, 4096)
	for i := range refs {
		refs[i] = bref(uint64(i%resident), int32(i%4), false)
	}
	newCacheWarm := func() *Cache {
		c := New(cfg)
		for blk := uint64(0); blk < resident; blk++ {
			c.Insert(blk, InsertMRU, Line{State: Exclusive})
		}
		return c
	}

	// coreStats mirrors the engine's per-core accounting fields.
	type coreStats struct {
		Instructions, L1Accesses, L1Hits uint64
		Cycles                           float64
	}

	b.Run("burst", func(b *testing.B) {
		c := newCacheWarm()
		var st coreStats
		clocks := make([]float64, 1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			instr := st.Instructions
			clock := clocks[0]
			bt := trace.Batch{Refs: refs}
			for {
				ev, in, ck, hits, _, _, _ := c.ReadBurst(&bt, burstShift, 1.0, math.MaxUint64, math.Inf(1), instr, clock)
				instr, clock = in, ck
				st.L1Accesses += hits
				st.L1Hits += hits
				if ev == BurstBatchEnd {
					break
				}
			}
			// The engine's once-per-turn fold and lazy clock publication.
			st.Instructions = instr
			st.Cycles = clock
			clocks[0] = clock
		}
		b.ReportMetric(float64(b.N)*float64(len(refs))/b.Elapsed().Seconds(), "refs/s")
	})
	b.Run("per-ref", func(b *testing.B) {
		c := newCacheWarm()
		var st coreStats
		clocks := make([]float64, 1)
		quota := uint64(math.MaxUint64)
		limit := math.Inf(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			clock := clocks[0]
			for _, ref := range refs {
				n := uint64(ref.Gap) + 1
				st.Instructions += n
				clock += float64(n) * 1.0
				clocks[0] = clock // published before the descent could read it
				_, hit := c.Access(ref.Addr >> burstShift)
				st.L1Accesses++
				if hit {
					st.L1Hits++
				}
				clocks[0] = clock
				st.Cycles = clock
				if st.Instructions >= quota || clock >= limit {
					break
				}
			}
		}
		b.ReportMetric(float64(b.N)*float64(len(refs))/b.Elapsed().Seconds(), "refs/s")
	})
}
