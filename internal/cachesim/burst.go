package cachesim

import (
	"fmt"
	"math/bits"

	"ascc/internal/trace"
)

// BurstEvent is why ReadBurst stopped consuming references.
type BurstEvent uint8

const (
	// BurstBatchEnd: the batch cursor reached the end of the decoded
	// references. The caller refills the batch and re-enters the kernel.
	BurstBatchEnd BurstEvent = iota
	// BurstMiss: the reference at the cursor missed this cache. The kernel
	// consumed it — the set-level miss is counted and the instruction-gap
	// clock accounting done — and published the block and store flag; the
	// caller owes the below-L1 descent (L2, coherence, memory) and the
	// latency's clock contribution.
	BurstMiss
	// BurstUpgrade: a store hit a line whose state is not Modified. The
	// kernel consumed the reference as a normal hit (counted, promoted to
	// MRU) and published the block and way; the caller owes the
	// write-through upgrade and the line-state transition. The reference's
	// latency is 0, like every L1 hit.
	BurstUpgrade
	// BurstQuota: the just-consumed reference pushed instr to the quota or
	// beyond. The core's statistics are ready to freeze.
	BurstQuota
	// BurstFrontier: the just-consumed reference pushed clock to the limit
	// or beyond — the core crossed the frontier's runner-up and the caller
	// must rescan for the new minimum core.
	BurstFrontier
)

// String names the event (tests and debugging).
func (e BurstEvent) String() string {
	switch e {
	case BurstBatchEnd:
		return "batch-end"
	case BurstMiss:
		return "miss"
	case BurstUpgrade:
		return "upgrade"
	case BurstQuota:
		return "quota"
	case BurstFrontier:
		return "frontier"
	}
	return "BurstEvent(?)"
}

// ReadBurst consumes consecutive references from bt until one needs the
// hierarchy below this cache, then returns at that event. Per reference it
// probes the tags of the set's ways-major line row, updates the set's
// packed recency word and hit/miss counters, and advances the deferred
// instruction/clock accounting; clock publication, CoreStats folding and
// all below-L1 work (demand descent, write-through upgrade, latency) belong
// to the caller.
// Read hits and stores to already-Modified lines are consumed without
// leaving the kernel; a miss or a store-upgrade consumes the reference's
// L1-level part and reports the remainder through block/way/write.
//
// The state exchange is deliberately all scalars: with events every ~1-2
// references on miss-heavy workloads, the call boundary is the kernel's
// per-reference overhead, and scalar arguments and results travel in
// registers under the Go ABI — the only memory store per call is the batch
// cursor. The parameters are the stepping bounds (quota on instructions,
// the frontier's runner-up clock as limit) and the running instr/clock;
// the results are the event, the advanced instr/clock, the number of
// references that hit (every consumed reference hit except a trailing
// BurstMiss, so total consumed is hits plus one on a miss), and the event
// reference's block, way (BurstUpgrade) and store flag (BurstMiss).
//
// Accounting contract (what keeps golden results bit-identical to per-ref
// stepping): for every consumed reference the kernel adds
// float64(gap+1)*baseCPI to clock — the same float additions in the same
// order as the per-reference loop performed them. References that stay in
// this cache have latency 0, whose per-ref step would further add
// 0.0*Overlap to a finite non-negative clock: the identity, so skipping it
// changes no bits. An event reference's latency contribution is added by
// the caller after the descent, exactly where the per-ref loop added it.
// The loop is written for the one L1 geometry, L1Ways-way packed rows, and
// lives directly in ReadBurstAt, which ReadBurst wraps: this is where the
// simulator spends its life, and a second call hop per event would be
// measurable. Any other geometry panics. All cache fields are hoisted into
// locals before the loop: the in-loop stores go through meta (set
// counters, recency) and never through the Cache struct or a slice header,
// so nothing needs reloading per reference.
func (c *Cache) ReadBurst(bt *trace.Batch, shift uint, baseCPI float64, quota uint64, limit float64, instr uint64, clock float64) (ev BurstEvent, instrOut uint64, clockOut float64, hits uint64, block uint64, way int, write bool) {
	ev, instrOut, clockOut, _, hits, block, way, write = c.ReadBurstAt(bt, shift, baseCPI, quota, limit, instr, clock)
	return
}

// ReadBurstAt is ReadBurst that also returns, for a BurstMiss or
// BurstUpgrade, the clock before the event reference's instruction-gap add:
// the time the reference starts at, which orders it against other cores'
// references (cmp's run-ahead rollback compares against it). For the other
// events at is meaningless.
func (c *Cache) ReadBurstAt(bt *trace.Batch, shift uint, baseCPI float64, quota uint64, limit float64, instr uint64, clock float64) (ev BurstEvent, instrOut uint64, clockOut, at float64, hits uint64, block uint64, way int, write bool) {
	if c.ways != L1Ways {
		// Wide sets have more than 16 ways, so this one compare also
		// keeps them out.
		panic(fmt.Sprintf("cachesim: burst kernel on a %d-way cache, want %d ways", c.ways, L1Ways))
	}
	refs := bt.Refs
	cur := bt.Pos
	start := cur
	setMask := c.setMask
	meta := c.meta
	lines := c.lines
	ev = BurstBatchEnd
	var evBlock uint64
	var evWay int
	var evWrite bool
	for cur < len(refs) {
		ref := refs[cur]
		block := ref.Addr >> shift
		si := int(block & setMask)
		base := si * L1Ways
		t := lines[base : base+L1Ways : base+L1Ways]
		match := b2u(t[0].Tag == block) | b2u(t[1].Tag == block)<<1 |
			b2u(t[2].Tag == block)<<2 | b2u(t[3].Tag == block)<<3
		m := &meta[si]
		if match &= m.valid; match == 0 {
			// Miss: the reference is still consumed — the set counter and
			// the instruction-gap clock add land here, in stream order —
			// and the below-L1 remainder is the caller's.
			m.misses++
			cur++
			n := uint64(ref.Gap) + 1
			instr += n
			at = clock
			clock += float64(n) * baseCPI
			evBlock, evWrite = block, ref.Write
			ev = BurstMiss
			break
		}
		w := bits.TrailingZeros64(match)
		m.hits++
		// MRU promotion, exactly as in Access. (A compare-chain rank search
		// profiles ~2x slower than promote's SWAR one — three setcc chains
		// against nibblePos's five straight ALU ops.)
		m.order = promote(m.order, w)
		cur++
		n := uint64(ref.Gap) + 1
		instr += n
		if ref.Write && t[w&3].State != Modified {
			at = clock
			clock += float64(n) * baseCPI
			evBlock, evWay = block, w
			ev = BurstUpgrade
			break
		}
		clock += float64(n) * baseCPI
		// Event checks run after the reference commits, quota before
		// frontier — the per-reference loop's exact order and priority.
		// Miss/upgrade references skip them: their below-L1 part is still
		// pending, so the caller applies the same checks after finishing
		// the reference.
		if instr >= quota {
			ev = BurstQuota
			break
		}
		if clock >= limit {
			ev = BurstFrontier
			break
		}
	}
	bt.Pos = cur
	// Every consumed reference hit except a trailing miss — at most one miss
	// is consumed per call, so the hit count is derived at exit instead of
	// maintained per reference.
	hits = uint64(cur - start)
	if ev == BurstMiss {
		hits--
	}
	return ev, instr, clock, at, hits, evBlock, evWay, evWrite
}

// HitLog is one core's record of the L1 hits it consumed ahead of the
// frontier (ReadAhead), kept so that a peer's later coherence action on the
// same L1 can undo them (Rewind). The logged hits are the last n consumed
// references of the batch, bt.Refs[bt.Pos-n : bt.Pos]; for each it holds
// the recency word its set had before the hit, by batch position, and for
// the first one the instruction count and clock it started at. Every
// logged hit's clock and instruction count follow from those by replaying
// the kernel's own additions, so nothing else is stored. The zero value
// logs nothing and must be bound with Bind before use.
type HitLog struct {
	bt      *trace.Batch
	shift   uint
	baseCPI float64
	saved   []uint64 // pre-hit recency word, by batch position

	n     int // logged hits
	instr uint64
	clock float64
}

// Bind attaches the log to a core's batch, line shift and base CPI, with
// saved (at least len(bt.Refs) long) as the storage for recency words.
func (lg *HitLog) Bind(bt *trace.Batch, shift uint, baseCPI float64, saved []uint64) {
	*lg = HitLog{bt: bt, shift: shift, baseCPI: baseCPI, saved: saved[:len(bt.Refs):len(bt.Refs)]}
}

// Len returns the number of logged hits.
func (lg *HitLog) Len() int { return lg.n }

// Commit forgets the logged hits: they can no longer be undone.
func (lg *HitLog) Commit() { lg.n = 0 }

// ReadAhead consumes plain hits from the log's batch — read hits and stores
// to Modified lines, the references ReadBurst keeps inside the cache — from
// instr/clock on, and logs each in lg (which must be empty). It stops
// without consuming at the first reference that is anything else: a miss, a
// store needing the upgrade, the one that would bring instr to quota, or
// the end of the batch. Each consumed hit is accounted exactly as ReadBurst
// accounts it (set hit counter, MRU promotion, the instruction-gap clock
// add) and returns the advanced instr/clock and the number of hits. Like
// ReadBurstAt it is written for an L1Ways-way cache; its caller runs it
// only after a ReadBurstAt on the same cache, whose guard checked that.
func (c *Cache) ReadAhead(lg *HitLog, quota uint64, instr uint64, clock float64) (uint64, float64, uint64) {
	bt := lg.bt
	refs := bt.Refs
	saved := lg.saved
	cur := bt.Pos
	start := cur
	shift, baseCPI := lg.shift, lg.baseCPI
	setMask := c.setMask
	meta := c.meta
	lines := c.lines
	lg.instr, lg.clock = instr, clock
	for cur < len(refs) {
		ref := refs[cur]
		n := uint64(ref.Gap) + 1
		if instr+n >= quota {
			break
		}
		block := ref.Addr >> shift
		si := int(block & setMask)
		base := si * L1Ways
		t := lines[base : base+L1Ways : base+L1Ways]
		match := b2u(t[0].Tag == block) | b2u(t[1].Tag == block)<<1 |
			b2u(t[2].Tag == block)<<2 | b2u(t[3].Tag == block)<<3
		m := &meta[si]
		if match &= m.valid; match == 0 {
			break
		}
		w := bits.TrailingZeros64(match)
		if ref.Write && t[w&3].State != Modified {
			break
		}
		saved[cur] = m.order
		m.hits++
		m.order = promote(m.order, w)
		cur++
		instr += n
		clock += float64(n) * baseCPI
	}
	bt.Pos = cur
	lg.n = cur - start
	return instr, clock, uint64(cur - start)
}

// after reports whether a logged hit starting at clock is ordered after a
// reference starting at at: later in time, or at the same time with tie
// set (the logging core's index is above the other core's).
func after(clock, at float64, tie bool) bool {
	return clock > at || (clock == at && tie)
}

// ClockAfter returns the clock at the start of the first logged hit ordered
// after a reference starting at at (see after), which is the clock the core
// would have stopped at had it stepped only in exact order; ok is false
// when every logged hit precedes that reference.
func (lg *HitLog) ClockAfter(at float64, tie bool) (clock float64, ok bool) {
	refs := lg.bt.Refs
	clock = lg.clock
	for p := lg.bt.Pos - lg.n; p < lg.bt.Pos; p++ {
		if after(clock, at, tie) {
			return clock, true
		}
		clock += float64(uint64(refs[p].Gap)+1) * lg.baseCPI
	}
	return 0, false
}

// Rewind undoes the logged hits from the first one that is ordered after a
// reference starting at at (see after) and falls in block's set of c, the
// cache the hits were logged on. Set hit counters and recency words are
// restored in reverse order and the batch cursor moves back, so the undone
// references are consumed again later. It returns the number of hits undone
// (0 when nothing needed undoing) and the instruction count and clock the
// core is back at. Matching by set, not block, is what keeps the restore
// exact: a saved recency word is only ever restored over changes made by
// the hits after it.
func (c *Cache) Rewind(lg *HitLog, block uint64, at float64, tie bool) (undone, instr uint64, clock float64) {
	bt := lg.bt
	refs := bt.Refs
	end := bt.Pos
	si := block & c.setMask
	instr, clock = lg.instr, lg.clock
	p := end - lg.n
	for ; p < end; p++ {
		ref := refs[p]
		if ref.Addr>>lg.shift&c.setMask == si && after(clock, at, tie) {
			break
		}
		n := uint64(ref.Gap) + 1
		instr += n
		clock += float64(n) * lg.baseCPI
	}
	if p == end {
		return 0, 0, 0
	}
	for i := end - 1; i >= p; i-- {
		m := &c.meta[refs[i].Addr>>lg.shift&c.setMask]
		m.order = lg.saved[i]
		m.hits--
	}
	bt.Pos = p
	lg.n -= end - p
	return uint64(end - p), instr, clock
}
