package cachesim

import (
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
// The packed 4-way loop lives directly in ReadBurst — the geometry every
// L1 in the harness uses, so this is where the simulator spends its life
// and a second call hop per event would be measurable. All cache fields
// are hoisted into locals before the loop: the in-loop stores go through
// meta (set counters, recency) and never through the Cache struct or a
// slice header, so nothing needs reloading per reference.
func (c *Cache) ReadBurst(bt *trace.Batch, shift uint, baseCPI float64, quota uint64, limit float64, instr uint64, clock float64) (ev BurstEvent, instrOut uint64, clockOut float64, hits uint64, block uint64, way int, write bool) {
	if c.wide != nil || c.ways != 4 {
		return c.readBurstGeneric(bt, shift, baseCPI, quota, limit, instr, clock)
	}
	refs := bt.Refs
	cur := bt.Pos
	start := cur
	setMask := c.setMask
	stride := c.stride
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
		base := si * stride
		t := lines[base : base+4 : base+4]
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
		clock += float64(n) * baseCPI
		if ref.Write && t[w&3].State != Modified {
			evBlock, evWay = block, w
			ev = BurstUpgrade
			break
		}
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
	return ev, instr, clock, hits, evBlock, evWay, evWrite
}

// readBurstGeneric covers every other geometry — packed rows of any
// associativity and the wide fallback — by resolving each reference with
// Access, so the set counters and the recency update are Access's own; the
// instruction/clock accounting and the event order are ReadBurst's.
func (c *Cache) readBurstGeneric(bt *trace.Batch, shift uint, baseCPI float64, quota uint64, limit float64, instr uint64, clock float64) (BurstEvent, uint64, float64, uint64, uint64, int, bool) {
	refs := bt.Refs
	cur := bt.Pos
	start := cur
	ev := BurstBatchEnd
	var evBlock uint64
	var evWay int
	var evWrite bool
	for cur < len(refs) {
		ref := refs[cur]
		block := ref.Addr >> shift
		w, hit := c.Access(block)
		cur++
		n := uint64(ref.Gap) + 1
		instr += n
		clock += float64(n) * baseCPI
		if !hit {
			evBlock, evWrite = block, ref.Write
			ev = BurstMiss
			break
		}
		if ref.Write && c.Line(c.SetIndex(block), w).State != Modified {
			evBlock, evWay = block, w
			ev = BurstUpgrade
			break
		}
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
	hits := uint64(cur - start)
	if ev == BurstMiss {
		hits--
	}
	return ev, instr, clock, hits, evBlock, evWay, evWrite
}
