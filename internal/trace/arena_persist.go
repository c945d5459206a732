package trace

// Persistence hooks for packed arenas (DESIGN.md §14).
//
// An Arena's packed 32-bit words are what the persistent chunk-file store
// (internal/trace/store) writes to disk and maps back in. The contract has
// three parts:
//
//   - Snapshot streams a consistent frozen prefix out of a live arena (the
//     write-behind half of the store tier);
//   - AdoptFrozen rebuilds an arena directly over externally owned packed
//     words — a read-only memory mapping — without decoding or copying
//     anything (the read-through half); a partial tail chunk is aliased
//     too when the words' capacity covers it, and copied to the heap only
//     by the first extension past the adopted prefix;
//   - WalkPacked structurally validates an untrusted word stream before it
//     is adopted, so a crafted or corrupted file can never push a replayer's
//     cursor past the chunk table (the store pairs it with checksums).
//
// An adopted arena still extends on demand: its source generator is fresh
// (position zero) while the frozen prefix already covers the first Refs()
// references, so the first extension past the prefix fast-forwards the
// generator — one synthesis pass over the prefix, paid only when a run
// outruns what the store held, after which a flush ratchets the stored
// prefix forward so no later process pays it again.

import "unsafe"

// PackCodecVersion identifies the packed-word reference codec (the record
// layouts documented above shortGapBits). The persistent arena store
// stamps it into every chunk file and rejects mismatches, so changing the
// packing only requires bumping this constant — stale files then read as
// misses and regenerate. Only the current version is decoded: a file of any other version is a mismatch,
// and its stream regenerates.
const PackCodecVersion = 2

// ArenaSnapshot describes the frozen prefix one Snapshot call streamed.
type ArenaSnapshot struct {
	Words    uint64 // packed 32-bit words in the prefix
	Refs     uint64 // whole references those words encode
	LastAddr uint64 // encoder's address after the prefix (delta base of the next ref)
}

// Snapshot streams the packed words of the arena's frozen prefix to fn, a
// whole chunk per span with any partial tail last, and returns the
// prefix's dimensions. It takes no lock: it reads one consistently
// published prefix point (words, reference count and encoder address
// agree) and streams the words below it, which are immutable, so a concurrent extension neither blocks it nor is blocked by
// it — the store's write-behind never waits on a writer, and a writer (whose
// source may resolve a parent arena through the cache) never waits on a
// save. fn must not retain the spans.
func (a *Arena) Snapshot(fn func(span []uint32) error) (ArenaSnapshot, error) {
	snap := a.published()
	cs := *a.chunks.Load()
	rem := snap.Words
	for ci := 0; rem > 0; ci++ {
		n := uint64(arenaChunkWords)
		if n > rem {
			n = rem
		}
		if err := fn(cs[ci][:n]); err != nil {
			return ArenaSnapshot{}, err
		}
		rem -= n
	}
	return snap, nil
}

// ChunkWords is the arena chunk size in packed 32-bit words (512 KiB).
// AdoptFrozen aliases a partial tail chunk only when the adopted words'
// capacity reaches the next multiple of ChunkWords, so a caller that wants
// a zero-copy adoption sizes its backing memory (the store, its file
// mapping) to a whole chunk.
const ChunkWords = arenaChunkWords

// AdoptFrozen builds an Arena whose frozen prefix aliases externally owned
// packed words — typically a read-only memory mapping of a store chunk
// file. Full chunks are adopted in place (zero copy, zero decode). The
// partial tail chunk is adopted in place too when cap(words) covers a whole
// chunk from its start; the arena then copies it onto the heap once, on
// the first extension past the prefix, so extension never writes into the
// foreign memory and the immutable-chunk-table reader contract holds.
// Words of exact length — a heap copy, like the store's big-endian
// fallback — have their tail copied here instead, since a chunk-sized view
// would run past the allocation. words must stay valid and unmodified for
// the life of the arena and every replayer over it, must be structurally
// valid (see WalkPacked) and must encode exactly refs references ending at
// lastAddr — the store validates all three before calling here. src
// continues the stream past the prefix exactly as NewArena would, via the
// fast-forward described in the package comment above.
func AdoptFrozen(src Generator, words []uint32, refs, lastAddr uint64) *Arena {
	a := &Arena{
		name:    src.Name(),
		src:     src,
		genBuf:  make([]Ref, arenaGenBatch),
		wwords:  uint64(len(words)),
		wrefs:   refs,
		encPrev: lastAddr,
		skip:    refs,
	}
	full := len(words) >> arenaChunkShift
	cs := make([]*arenaChunk, full, full+1)
	for i := range cs {
		cs[i] = (*arenaChunk)(unsafe.Pointer(&words[i<<arenaChunkShift]))
	}
	if rem := len(words) & arenaChunkMask; rem > 0 {
		start := full << arenaChunkShift
		var tail *arenaChunk
		if cap(words)-start >= arenaChunkWords {
			tail = (*arenaChunk)(unsafe.Pointer(&words[start]))
			a.foreignTail = true
		} else {
			tail = new(arenaChunk)
			copy(tail[:rem], words[start:])
		}
		cs = append(cs, tail)
	}
	a.chunks.Store(&cs)
	a.publish()
	return a
}

// resume prepares an adopted arena for its first extension: it copies an
// aliased partial tail chunk onto the heap, swapping in a fresh chunk table
// so readers holding the old one keep decoding the (identical) foreign
// words, and discards the source generator's first skip references, which
// the adopted prefix already encodes. Writer-only (mu held); runs once per
// adopted arena, whose skip — its prefix's reference count — is nonzero
// whenever it holds a tail.
func (a *Arena) resume() {
	if a.foreignTail {
		cs := *a.chunks.Load()
		owned := make([]*arenaChunk, len(cs), len(cs)+1)
		copy(owned, cs)
		n := a.wwords & arenaChunkMask
		tail := new(arenaChunk)
		copy(tail[:n], cs[len(cs)-1][:n])
		owned[len(owned)-1] = tail
		a.chunks.Store(&owned)
		a.foreignTail = false
	}
	for a.skip > 0 {
		n := uint64(len(a.genBuf))
		if n > a.skip {
			n = a.skip
		}
		a.src.NextBatch(a.genBuf[:n])
		a.skip -= n
	}
}

// WalkPacked scans a packed word stream exactly as a Replayer would decode
// it, without materialising references: one word per short record, two
// per long record, four per escape record (told apart, like the decoder,
// by the tag bit and the all-ones long gap field). It returns the number
// of whole references the stream encodes and the final decoded address,
// with ok=false when the stream is structurally invalid — a long or escape
// record truncated by the end of the stream, which would otherwise march a
// replayer's cursor past the words a file actually holds. The store runs
// this over every candidate file before adoption and cross-checks refs and
// lastAddr against the file header.
func WalkPacked(words []uint32) (refs, lastAddr uint64, ok bool) {
	var prev uint64
	n := uint64(len(words))
	for pos := uint64(0); pos < n; refs++ {
		w := words[pos]
		switch {
		case w&1 == 0:
			prev = decodeShort(w, prev).Addr
			pos++
		case (w>>2)&longGapMask != longGapMask:
			if pos+2 > n {
				return refs, prev, false
			}
			prev = decodeLong(uint64(words[pos+1])<<32|uint64(w), prev).Addr
			pos += 2
		default:
			if pos+maxRecordWords > n {
				return refs, prev, false
			}
			prev = uint64(words[pos+2])<<32 | uint64(words[pos+1])
			pos += maxRecordWords
		}
	}
	return refs, prev, true
}
