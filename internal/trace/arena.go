package trace

// Memoised packed reference-stream arena (DESIGN.md §10).
//
// The engine deliberately compares policies on bit-identical reference
// streams, yet historically every policy run of a mix re-synthesised the
// same stream from scratch — after the cache kernel and coherence probes
// were optimised, trace synthesis (component mixing, Zipf sampling, RNG
// draws) was the top of the steady-state profile. An Arena generates each
// stream once, packs it at one uint64 per reference, and replays it through
// any number of Replayers: the per-run synthesis cost becomes a
// once-per-(workload, seed) cost, and the replay path is a straight decode
// with no virtual component dispatch and no RNG draws.
//
// Concurrency protocol (single-writer, frozen-prefix readers): the arena is
// append-only. A single writer at a time — serialised by Arena.mu — pulls
// batches from the source generator and packs them into fixed-size chunks;
// it publishes progress by atomically storing the word and reference counts
// *after* the words are written, and publishes chunk-table growth by
// atomically swapping an immutable chunk-pointer slice. Readers never take
// the lock: they load the published reference count and only decode below
// it (the frozen prefix), so concurrent policy runs of very different
// lengths — including the "past-quota cores keep executing" tail — share
// one arena race-free, extending it on demand when they outrun the prefix.
// Snapshot, the persistent store's write-behind, reads the same way, so the
// writer lock is only ever taken by Extend.

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Packed-word layout, least-significant bit first:
//
//	bit  0      write flag
//	bits 1..12  instruction gap (packGapBits wide)
//	bits 13..63 zigzag-encoded address delta to the previous reference
//
// A reference whose gap or delta does not fit falls back to an escape
// record: a word whose gap field is all-ones (the delta and write bits are
// zero), followed by the full 64-bit address and a word holding
// uint32(gap)<<1 | write. The workload models emit 32-byte-aligned
// addresses within a few hundred megabytes of their base and single-digit
// gaps, so in practice every reference packs into one word; the escape
// path exists so the codec is total over arbitrary Ref values (and is
// exercised by FuzzRefCodec's committed corpus).
const (
	packGapBits   = 12
	packGapMask   = 1<<packGapBits - 1
	packDeltaBits = 63 - packGapBits // 51
	packDeltaMax  = 1<<packDeltaBits - 1
	packEscape    = uint64(packGapMask) << 1
)

// arenaChunkWords is the fixed chunk size: 64 Ki words (512 KiB) holds
// ~65 k packed references, so a full default-budget simulation run stays
// within a few dozen chunks and the copy-on-grow chunk table stays tiny.
const (
	arenaChunkShift = 16
	arenaChunkWords = 1 << arenaChunkShift
	arenaChunkMask  = arenaChunkWords - 1
)

type arenaChunk [arenaChunkWords]uint64

// arenaGenBatch is how many references the writer pulls from the source
// generator per packing iteration, and arenaExtendAhead how far past the
// requested position an extension overshoots: readers hitting the end of
// the frozen prefix then pay one writer-lock acquisition per ~16 k
// references instead of one per 64-reference simulator batch.
const (
	arenaGenBatch    = 256
	arenaExtendAhead = 16384
)

// Arena is a chunked, append-only, packed encoding of one generator's
// reference stream. Build one with NewArena, replay it with NewReplayer;
// the source generator must not be used elsewhere once handed over.
type Arena struct {
	name string

	// chunks is the immutable chunk-pointer table; the writer swaps in a
	// longer copy when it fills a chunk. nwords/nrefs/lastAddr are the
	// published frozen prefix: readers may decode words below nwords,
	// which always form exactly nrefs whole references ending at address
	// lastAddr. Replayers only need nrefs; Snapshot reads the triple as
	// one consistent point without the writer lock, bracketing its loads
	// with seq, which the writer makes odd while it publishes.
	chunks   atomic.Pointer[[]*arenaChunk]
	seq      atomic.Uint64
	nwords   atomic.Uint64
	nrefs    atomic.Uint64
	lastAddr atomic.Uint64

	// Writer state, guarded by mu: the source generator, its batch buffer,
	// the writer's private word/ref counts (mirrors of nwords/nrefs), the
	// encoder's previous address, and — for arenas adopted from the
	// persistent store (AdoptFrozen) — the references the fresh generator
	// must discard before live appending resumes and whether the tail
	// chunk still aliases the adopted (read-only) memory.
	mu          sync.Mutex
	src         Generator
	genBuf      []Ref
	wwords      uint64
	wrefs       uint64
	encPrev     uint64
	skip        uint64
	foreignTail bool
}

// NewArena wraps src as the single producer of a packed arena. The arena
// owns src from here on: replaying and extending consume it.
func NewArena(src Generator) *Arena {
	a := &Arena{
		name:   src.Name(),
		src:    src,
		genBuf: make([]Ref, arenaGenBatch),
	}
	empty := []*arenaChunk{}
	a.chunks.Store(&empty)
	return a
}

// Name returns the source generator's name.
func (a *Arena) Name() string { return a.name }

// Refs returns the published reference count — the frozen prefix length
// any replayer may decode without synchronisation.
func (a *Arena) Refs() uint64 { return a.nrefs.Load() }

// Bytes returns the packed storage held by the arena (the memory the
// cache's budget accounts against).
func (a *Arena) Bytes() int64 {
	return int64(len(*a.chunks.Load())) * arenaChunkWords * 8
}

// Extend generates and packs references until the frozen prefix holds at
// least minRefs of them. Any goroutine may call it; the internal lock makes
// the generator single-writer, and concurrent readers keep decoding the
// already-published prefix while the extension runs.
func (a *Arena) Extend(minRefs uint64) {
	if a.nrefs.Load() >= minRefs {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.skip > 0 {
		a.resume()
	}
	for a.wrefs < minRefs {
		a.src.NextBatch(a.genBuf)
		for _, ref := range a.genBuf {
			a.appendRef(ref)
		}
		a.wrefs += uint64(len(a.genBuf))
		a.publish()
	}
}

// publish makes the writer's position the frozen prefix. Order matters:
// the words are already written, and nrefs — what replayers gate on — is
// stored last (atomic stores order these writes). Writer-only.
func (a *Arena) publish() {
	a.seq.Add(1)
	a.nwords.Store(a.wwords)
	a.lastAddr.Store(a.encPrev)
	a.nrefs.Store(a.wrefs)
	a.seq.Add(1)
}

// published returns the frozen prefix as one consistent (words, refs,
// lastAddr) point without taking the writer lock: it retries while a
// publication is in progress or completed between its loads.
func (a *Arena) published() ArenaSnapshot {
	for {
		s := a.seq.Load()
		p := ArenaSnapshot{Words: a.nwords.Load(), Refs: a.nrefs.Load(), LastAddr: a.lastAddr.Load()}
		if s&1 == 0 && a.seq.Load() == s {
			return p
		}
		runtime.Gosched()
	}
}

// appendRef packs one reference at the write position. Writer-only.
func (a *Arena) appendRef(ref Ref) {
	delta := int64(ref.Addr - a.encPrev)
	zz := uint64(delta<<1) ^ uint64(delta>>63)
	gap := ref.Gap
	a.encPrev = ref.Addr
	if zz <= packDeltaMax && gap >= 0 && gap < packGapMask {
		w := zz<<(packGapBits+1) | uint64(gap)<<1
		if ref.Write {
			w |= 1
		}
		a.appendWord(w)
		return
	}
	// Escape record: marker, full address, gap+write word.
	a.appendWord(packEscape)
	a.appendWord(ref.Addr)
	gw := uint64(uint32(gap)) << 1
	if ref.Write {
		gw |= 1
	}
	a.appendWord(gw)
}

// appendWord stores one packed word, growing the chunk table when the tail
// chunk is full. Writer-only; the swapped-in table is a fresh slice so
// concurrent readers keep a consistent view of the one they loaded.
func (a *Arena) appendWord(w uint64) {
	cs := *a.chunks.Load()
	ci := int(a.wwords >> arenaChunkShift)
	if ci == len(cs) {
		grown := make([]*arenaChunk, len(cs)+1)
		copy(grown, cs)
		grown[len(cs)] = new(arenaChunk)
		a.chunks.Store(&grown)
		cs = grown
	}
	cs[ci][a.wwords&arenaChunkMask] = w
	a.wwords++
}

// NewReplayer returns an independent reader positioned at the start of the
// stream. Replayers are cheap (a few words of cursor state), single-
// goroutine like every Generator, and allocation-free on NextBatch once the
// arena covers the replayed prefix.
func (a *Arena) NewReplayer() *Replayer {
	return &Replayer{a: a}
}

// Replayer decodes an Arena back into the exact reference stream its
// source generator would have produced. It implements Generator, so it
// drops into the simulator wherever the live generator would go.
type Replayer struct {
	a      *Arena
	pos    uint64 // absolute word cursor
	refPos uint64 // references decoded so far
	prev   uint64 // decoder's previous address (delta base)
}

// Name implements Generator.
func (r *Replayer) Name() string { return r.a.name }

// Next implements Generator.
func (r *Replayer) Next() Ref {
	var one [1]Ref
	r.NextBatch(one[:])
	return one[0]
}

// NextBatch implements Generator: a straight decode of len(buf) packed
// references into buf — no component dispatch, no RNG draws. When the
// frozen prefix runs out the arena is extended (ahead, to amortise the
// writer lock) before decoding resumes.
func (r *Replayer) NextBatch(buf []Ref) {
	need := r.refPos + uint64(len(buf))
	if need > r.a.Refs() {
		r.a.Extend(need + arenaExtendAhead)
	}
	cs := *r.a.chunks.Load()
	pos, prev := r.pos, r.prev
	for i := range buf {
		w := cs[pos>>arenaChunkShift][pos&arenaChunkMask]
		pos++
		if (w>>1)&packGapMask == packGapMask {
			// Escape record: full address, then gap+write.
			addr := cs[pos>>arenaChunkShift][pos&arenaChunkMask]
			pos++
			gw := cs[pos>>arenaChunkShift][pos&arenaChunkMask]
			pos++
			buf[i] = Ref{Addr: addr, Write: gw&1 != 0, Gap: int32(uint32(gw >> 1))}
			prev = addr
			continue
		}
		zz := w >> (packGapBits + 1)
		prev += uint64(int64(zz>>1) ^ -int64(zz&1))
		buf[i] = Ref{Addr: prev, Write: w&1 != 0, Gap: int32((w >> 1) & packGapMask)}
	}
	r.pos, r.prev, r.refPos = pos, prev, need
}

// ArenaStore is a persistent tier beneath an ArenaCache: chunk files keyed
// by the cache's stream keys, surviving the process (see
// internal/trace/store for the mmap-backed implementation). Load returns
// the stored arena for key, or nil on any miss — absent file, corruption,
// codec-version mismatch — in which case the cache falls back to live
// synthesis; src is consumed by the returned arena exactly as NewArena
// would, continuing the stream past the stored prefix. Save persists a's
// current frozen prefix under key, atomically with respect to concurrent
// readers in other processes. Implementations must be safe for concurrent
// use.
type ArenaStore interface {
	Load(key string, src Generator) *Arena
	Save(key string, a *Arena) error
}

// ArenaCache memoises arenas under a memory budget. Get is singleflight
// per key: concurrent callers for the same stream share one arena (and
// therefore one generation pass). When the packed bytes held by cached
// arenas exceed the budget, cold arenas are evicted least-recently-used
// first; replayers already holding an evicted arena keep working — eviction
// only drops the cache's reference, so the next request for that stream
// regenerates from scratch.
//
// With a persistent store attached (SetStore) the cache becomes the
// in-memory tier of a two-level hierarchy: Get reads through to the store
// on a memory miss, eviction writes a dirty arena behind before dropping
// it, and FlushStore persists everything that grew since its last save —
// so a later process replays the streams this one synthesised.
//
// Lock rule: mu is never held while taking an arena mutex or doing file
// I/O. Store loads run outside it behind a per-key in-flight placeholder
// (so concurrent Gets of one key still adopt a single arena), and every
// Save runs after mu is released, serialised by saveMu. This matters
// because arena sources may call back into the cache: a sampled sub-arena
// resolves its parent with Get from inside Extend, i.e. holding the
// sub-arena's mutex, so the cache must never wait on an arena — and it
// also means a Get never stalls behind another arena's fsync.
type ArenaCache struct {
	mu      sync.Mutex
	max     int64
	tick    uint64
	entries map[string]*arenaCacheEntry
	store   ArenaStore
	// saved tracks, per key, the reference count already persisted, so
	// flushes and eviction write-behinds only touch arenas that grew.
	saved map[string]uint64
	// saveMu serialises store writes (flushes and write-behinds), so two
	// saves of one key never race to publish out of order. Taken without
	// mu held; mu is taken inside it only briefly.
	saveMu sync.Mutex
}

// arenaCacheEntry is one cached arena. a is nil while a store load for the
// key is in flight; other Gets for the key wait on loading.
type arenaCacheEntry struct {
	a       *Arena
	lastUse uint64
	loading chan struct{}
}

// arenaSave is one arena to persist, with the reference count it held when
// chosen (a lower bound on what the save captures).
type arenaSave struct {
	key  string
	a    *Arena
	refs uint64
}

// NewArenaCache builds a cache bounded to maxBytes of packed stream data
// (enforced at acquisition time; an arena growing between acquisitions can
// overshoot transiently). maxBytes <= 0 means unbounded.
func NewArenaCache(maxBytes int64) *ArenaCache {
	return &ArenaCache{max: maxBytes, entries: map[string]*arenaCacheEntry{}, saved: map[string]uint64{}}
}

// SetStore attaches a persistent tier. The first store wins: runners
// sharing one pool-wide cache may race to attach (possibly with different
// roots), and swapping stores mid-flight would split the dirty-tracking
// state across directories. Attaching nil is a no-op.
func (c *ArenaCache) SetStore(s ArenaStore) {
	if s == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.store == nil {
		c.store = s
	}
}

// Store returns the attached persistent tier, nil when none.
func (c *ArenaCache) Store() ArenaStore {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.store
}

// FlushStore persists every cached arena whose frozen prefix grew since it
// was last saved (write-behind). A no-op without a store. Call it when a
// batch of runs completes — the CLI flushes once per invocation — rather
// than per run: arenas extend lazily throughout a run, so flushing early
// just rewrites files the next flush replaces. Returns the first save
// error; later arenas are still attempted.
func (c *ArenaCache) FlushStore() error {
	c.saveMu.Lock()
	defer c.saveMu.Unlock()
	c.mu.Lock()
	st := c.store
	var dirty []arenaSave
	if st != nil {
		for key, e := range c.entries {
			if e.a != nil {
				dirty = c.appendDirty(dirty, key, e.a)
			}
		}
	}
	c.mu.Unlock()
	return c.save(st, dirty)
}

// appendDirty appends (key, a) to list when a grew past what the store
// holds for key. Lock held.
func (c *ArenaCache) appendDirty(list []arenaSave, key string, a *Arena) []arenaSave {
	if refs := a.Refs(); refs > c.saved[key] {
		list = append(list, arenaSave{key, a, refs})
	}
	return list
}

// save writes list to st and records what each save persisted, returning
// the first error. saveMu held, mu not held.
func (c *ArenaCache) save(st ArenaStore, list []arenaSave) error {
	var first error
	for _, s := range list {
		if err := st.Save(s.key, s.a); err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		c.mu.Lock()
		if s.refs > c.saved[s.key] {
			c.saved[s.key] = s.refs
		}
		c.mu.Unlock()
	}
	return first
}

// MaxBytes returns the current byte budget (<= 0 means unbounded).
func (c *ArenaCache) MaxBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.max
}

// Raise lifts the byte budget to maxBytes when that is more permissive than
// the current one (maxBytes <= 0, unbounded, wins over any bound). Budgets
// never shrink: lowering the cap mid-run would evict arenas that concurrent
// runs sharing the cache are still replaying and extending, throwing away
// their generation passes and re-paying them on the next Get. Callers that
// share one cache under different configured budgets therefore operate
// under the union of their demands.
func (c *ArenaCache) Raise(maxBytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.max <= 0 {
		return // already unbounded
	}
	if maxBytes <= 0 || maxBytes > c.max {
		c.max = maxBytes
	}
}

// Get returns the arena cached under key, wrapping src into a new one on
// miss. key must uniquely determine src's stream: two generators producing
// different streams must never share a key. src is consumed only when the
// key misses; on a hit it is simply discarded. With a store attached, a
// memory miss first reads through to the persistent tier — a stored arena
// adopts its mapped prefix with zero decode, and src only synthesises
// whatever a run demands beyond it.
func (c *ArenaCache) Get(key string, src Generator) *Arena {
	c.mu.Lock()
	e := c.entries[key]
	for e != nil && e.a == nil {
		// Another Get is loading key from the store: wait for its arena.
		loading := e.loading
		c.mu.Unlock()
		<-loading
		c.mu.Lock()
		e = c.entries[key]
	}
	if e == nil {
		e = &arenaCacheEntry{}
		c.entries[key] = e
		var a *Arena
		if st := c.store; st != nil {
			e.loading = make(chan struct{})
			c.mu.Unlock()
			a = st.Load(key, src)
			c.mu.Lock()
			if a != nil {
				c.saved[key] = a.Refs()
			}
		}
		if a == nil {
			a = NewArena(src)
		}
		e.a = a
		if e.loading != nil {
			close(e.loading)
		}
	}
	c.tick++
	e.lastUse = c.tick
	a, st, victims := e.a, c.store, c.evict(e)
	c.mu.Unlock()
	if len(victims) > 0 {
		c.saveMu.Lock()
		c.save(st, victims) // best effort: a failed write-behind costs a regeneration, never a result
		c.saveMu.Unlock()
	}
	return a
}

// evict drops least-recently-used entries (never keep, which the caller is
// about to use, nor a placeholder still loading) until the cached packed
// bytes fit the budget. With a store attached it returns the dropped
// arenas that are dirty, for the caller to write behind once the lock is
// released, so eviction costs one file write instead of a future
// regeneration pass. Called with the lock held.
func (c *ArenaCache) evict(keep *arenaCacheEntry) []arenaSave {
	if c.max <= 0 {
		return nil
	}
	var victims []arenaSave
	for c.bytes() > c.max {
		var coldKey string
		var cold *arenaCacheEntry
		for k, e := range c.entries {
			if e == keep || e.a == nil {
				continue
			}
			if cold == nil || e.lastUse < cold.lastUse {
				coldKey, cold = k, e
			}
		}
		if cold == nil {
			break
		}
		if c.store != nil {
			victims = c.appendDirty(victims, coldKey, cold.a)
		}
		delete(c.entries, coldKey)
	}
	return victims
}

// bytes sums the packed storage of every cached arena. Lock held.
func (c *ArenaCache) bytes() int64 {
	var n int64
	for _, e := range c.entries {
		if e.a != nil {
			n += e.a.Bytes()
		}
	}
	return n
}

// Bytes returns the packed storage currently held by cached arenas.
func (c *ArenaCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes()
}

// Len returns the number of cached arenas, counting any whose store load
// is still in flight.
func (c *ArenaCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
