package trace

// Memoised packed reference-stream arena (DESIGN.md §10).
//
// The engine deliberately compares policies on bit-identical reference
// streams, yet historically every policy run of a mix re-synthesised the
// same stream from scratch — after the cache kernel and coherence probes
// were optimised, trace synthesis (component mixing, Zipf sampling, RNG
// draws) was the top of the steady-state profile. An Arena generates each
// stream once, packs it at 4 bytes per reference (a 32-bit short record;
// the rare reference that does not fit takes 8 or 16), and replays it
// through any number of Replayers: the per-run synthesis cost becomes a
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
// it (the frozen prefix), so concurrent runs of very different lengths —
// every experiment's budget sets its own quotas — share one arena
// race-free, extending it on demand when they outrun the prefix.
// Snapshot, the persistent store's write-behind, reads the same way, so the
// writer lock is only ever taken by Extend.

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Packed codec v2: a stream is a sequence of 32-bit words, and each
// reference is one record of one, two or four words. Bits are numbered
// least-significant first; bit 0 of a record's first word is its tag.
//
// Short record, one word (tag 0), the common case:
//
//	bit  0      0
//	bit  1      write flag
//	bits 2..8   instruction gap, 0..127 (shortGapBits wide)
//	bits 9..31  zigzag-encoded address delta to the previous reference,
//	            in 32-byte units (shortDeltaBits wide: ±128 MiB)
//
// Long record, two words read as one little-endian 64-bit value (tag 1),
// for a delta that is not a multiple of 32 bytes or is out of short range,
// or a gap of 128 or more:
//
//	bit  0      1
//	bit  1      write flag
//	bits 2..13  instruction gap, 0..4094 (longGapBits wide; all-ones is the
//	            escape marker)
//	bits 14..63 zigzag-encoded address delta in bytes (longDeltaBits wide)
//
// Escape record, four words, for what neither fits — a negative gap, a gap
// of 4095 or more, a delta beyond ±2^49 bytes: a first word with the tag
// set, the write flag and an all-ones long gap field (bits 14..31 zero),
// then the full address low word first, then the gap as a uint32. The
// workload models emit 32-byte-aligned addresses a few hundred megabytes
// apart at most and single-digit gaps, so SPEC streams pack entirely into
// short records; the long record carries the multithreaded profiles'
// shared↔private jumps and sampled views' merged gaps, and the escape
// record keeps the codec total over arbitrary Ref values (-trace input,
// FuzzRefCodec's committed corpus).
const (
	shortGapBits   = 7
	shortGapMax    = 1<<shortGapBits - 1
	shortDeltaBits = 32 - 2 - shortGapBits // 23
	shortDeltaMax  = 1<<shortDeltaBits - 1
	shortAlign     = 5 // log2 of the short delta unit (32 bytes)

	longGapBits   = 12
	longGapMask   = 1<<longGapBits - 1
	longDeltaBits = 64 - 2 - longGapBits // 50
	longDeltaMax  = 1<<longDeltaBits - 1

	escapeMarker = longGapMask<<2 | 1

	// maxRecordWords is the widest record, the escape record.
	maxRecordWords = 4
)

// arenaChunkWords is the fixed chunk size: 128 Ki words (512 KiB) holds
// ~131 k short records, so a full default-budget simulation run stays
// within a few dozen chunks and the copy-on-grow chunk table stays tiny.
const (
	arenaChunkShift = 17
	arenaChunkWords = 1 << arenaChunkShift
	arenaChunkMask  = arenaChunkWords - 1
	arenaChunkBytes = arenaChunkWords * 4
)

type arenaChunk [arenaChunkWords]uint32

// arenaGenBatch is how many references the writer pulls from the source
// generator per packing iteration. arenaExtendGrid is the grid a replayer
// that outruns the frozen prefix rounds its extension target up to:
// readers then pay one writer-lock acquisition per ~16 k references
// instead of one per 64-reference simulator batch, and since every target
// is a grid point (a whole number of writer batches), an arena's length
// depends only on how far its readers read, never on how their batches
// interleaved — so the store files a parallel run flushes are a function
// of the set of runs.
const (
	arenaGenBatch   = 256
	arenaExtendGrid = 16384
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
	return int64(len(*a.chunks.Load())) * arenaChunkBytes
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
		a.pack(a.genBuf)
		a.wrefs += uint64(len(a.genBuf))
		a.publish()
	}
}

// pack encodes one generator batch at the write position. When the tail
// chunk (grown first if the last one is full) has room for the batch's
// worst case (an escape record, four words, per reference) it encodes
// straight into the chunk with the cursor and the previous address in
// locals; otherwise — a batch that might straddle the chunk boundary — it
// falls back to appendRef, which grows the chunk table as it goes. Both
// encode through encodeRef, and the words stay unpublished until the
// caller's publish. Writer-only.
func (a *Arena) pack(batch []Ref) {
	cs := *a.chunks.Load()
	ci := int(a.wwords >> arenaChunkShift)
	if ci == len(cs) {
		cs = a.grow(cs)
	}
	off := int(a.wwords & arenaChunkMask)
	if arenaChunkWords-off < maxRecordWords*len(batch) {
		for _, ref := range batch {
			a.appendRef(ref)
		}
		return
	}
	dst := cs[ci][off:]
	prev := a.encPrev
	n := 0
	for _, ref := range batch {
		n += encodeRef((*[maxRecordWords]uint32)(dst[n:n+maxRecordWords]), prev, ref)
		prev = ref.Addr
	}
	a.encPrev = prev
	a.wwords += uint64(n)
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

// encodeRef writes ref's record, delta-coded against the previous address
// prev, to the start of rec and returns the words written: 1 for a short
// record, 2 for a long one, 4 for an escape record.
func encodeRef(rec *[maxRecordWords]uint32, prev uint64, ref Ref) int {
	var wr uint32
	if ref.Write {
		wr = 2
	}
	delta := int64(ref.Addr - prev)
	gap := uint32(ref.Gap) // a negative gap lands far above every field
	if delta&(1<<shortAlign-1) == 0 && gap <= shortGapMax {
		units := delta >> shortAlign
		if zz := uint64(units<<1) ^ uint64(units>>63); zz <= shortDeltaMax {
			rec[0] = uint32(zz)<<(32-shortDeltaBits) | gap<<2 | wr
			return 1
		}
	}
	if zz := uint64(delta<<1) ^ uint64(delta>>63); zz <= longDeltaMax && gap < longGapMask {
		w := zz<<(64-longDeltaBits) | uint64(gap)<<2 | uint64(wr) | 1
		rec[0], rec[1] = uint32(w), uint32(w>>32)
		return 2
	}
	*rec = [maxRecordWords]uint32{escapeMarker | wr, uint32(ref.Addr), uint32(ref.Addr >> 32), gap}
	return 4
}

// decodeShort decodes the short record w against the previous address
// prev. The caller has checked w's tag bit is clear.
func decodeShort(w uint32, prev uint64) Ref {
	zz := uint64(w >> (32 - shortDeltaBits))
	units := int64(zz>>1) ^ -int64(zz&1)
	return Ref{Addr: prev + uint64(units<<shortAlign), Write: w&2 != 0, Gap: int32(w>>2) & shortGapMax}
}

// wordAt returns the packed word at absolute position pos of cs.
func wordAt(cs []*arenaChunk, pos uint64) uint32 {
	return cs[pos>>arenaChunkShift][pos&arenaChunkMask]
}

// decodeLong decodes the long record v (its two words, first word low)
// against the previous address prev.
func decodeLong(v, prev uint64) Ref {
	zz := v >> (64 - longDeltaBits)
	delta := int64(zz>>1) ^ -int64(zz&1)
	return Ref{Addr: prev + uint64(delta), Write: v&2 != 0, Gap: int32(v>>2) & longGapMask}
}

// appendRef packs one reference at the write position, a word at a time.
// Writer-only.
func (a *Arena) appendRef(ref Ref) {
	var rec [maxRecordWords]uint32
	n := encodeRef(&rec, a.encPrev, ref)
	a.encPrev = ref.Addr
	for _, w := range rec[:n] {
		a.appendWord(w)
	}
}

// appendWord stores one packed word, growing the chunk table when the tail
// chunk is full. Writer-only.
func (a *Arena) appendWord(w uint32) {
	cs := *a.chunks.Load()
	ci := int(a.wwords >> arenaChunkShift)
	if ci == len(cs) {
		cs = a.grow(cs)
	}
	cs[ci][a.wwords&arenaChunkMask] = w
	a.wwords++
}

// grow publishes cs plus one fresh chunk as the chunk table and returns
// it. Writer-only; the swapped-in table is a fresh slice so concurrent
// readers keep a consistent view of the one they loaded.
func (a *Arena) grow(cs []*arenaChunk) []*arenaChunk {
	grown := make([]*arenaChunk, len(cs)+1)
	copy(grown, cs)
	grown[len(cs)] = new(arenaChunk)
	a.chunks.Store(&grown)
	return grown
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
	r.a.ensure(need)
	cs := *r.a.chunks.Load()
	pos, prev := r.pos, r.prev
	for i := 0; i < len(buf); {
		// A run of short records up to the end of the chunk, then at most
		// one wide record, whose later words the chunk's end may cut off
		// into the next chunk.
		c := cs[pos>>arenaChunkShift][pos&arenaChunkMask:]
		n := 0
		for ; i < len(buf) && n < len(c) && c[n]&1 == 0; i, n = i+1, n+1 {
			buf[i] = decodeShort(c[n], prev)
			prev = buf[i].Addr
		}
		pos += uint64(n)
		if i < len(buf) && n < len(c) {
			switch w := c[n]; {
			case w&escapeMarker == escapeMarker:
				lo, hi, gap := wordAt(cs, pos+1), wordAt(cs, pos+2), wordAt(cs, pos+3)
				buf[i] = Ref{Addr: uint64(hi)<<32 | uint64(lo), Write: w&2 != 0, Gap: int32(gap)}
				pos += 4
			case n+1 < len(c):
				buf[i] = decodeLong(uint64(c[n+1])<<32|uint64(w), prev)
				pos += 2
			default:
				buf[i] = decodeLong(uint64(wordAt(cs, pos+1))<<32|uint64(w), prev)
				pos += 2
			}
			prev = buf[i].Addr
			i++
		}
	}
	r.pos, r.prev, r.refPos = pos, prev, need
}

// ensure extends the arena, when its frozen prefix holds fewer than need
// references, to need rounded up to the extension grid.
func (a *Arena) ensure(need uint64) {
	if need > a.Refs() {
		a.Extend((need + arenaExtendGrid - 1) &^ (arenaExtendGrid - 1))
	}
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
