package trace

import (
	"errors"
	"testing"
	"unsafe"
)

// snapshotWords collects an arena's frozen prefix through Snapshot.
func snapshotWords(t *testing.T, a *Arena) ([]uint32, ArenaSnapshot) {
	t.Helper()
	var words []uint32
	snap, err := a.Snapshot(func(span []uint32) error {
		words = append(words, span...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return words, snap
}

// TestSnapshotAdoptRoundTrip streams a multi-chunk arena out through
// Snapshot, adopts an arbitrary structurally valid prefix of it through
// AdoptFrozen — a full chunk in place plus a partial tail, aliased until
// the first extension copies it, ending mid generator batch — and checks
// that a replayer over the adopted arena yields the source stream both
// inside the prefix and past it, where the fresh generator has to
// fast-forward over the adopted references first.
func TestSnapshotAdoptRoundTrip(t *testing.T) {
	live := NewArena(testComposite(5))
	live.Extend(arenaChunkWords + 4000)
	words, snap := snapshotWords(t, live)
	if snap.Words != uint64(len(words)) || snap.Refs != live.Refs() {
		t.Fatalf("snapshot %+v over %d words, arena holds %d refs", snap, len(words), live.Refs())
	}
	if refs, last, ok := WalkPacked(words); !ok || refs != snap.Refs || last != snap.LastAddr {
		t.Fatalf("WalkPacked over the snapshot = (%d, %#x, %v), want (%d, %#x, true)",
			refs, last, ok, snap.Refs, snap.LastAddr)
	}

	// An odd prefix length: one full chunk, a partial tail, and a reference
	// count that is not a multiple of the generator batch.
	k := arenaChunkWords + 1001
	refs, last, ok := WalkPacked(words[:k])
	for !ok || refs%arenaGenBatch == 0 {
		k--
		refs, last, ok = WalkPacked(words[:k])
	}
	// Spare capacity past the prefix: an aliased tail chunk would extend
	// into it.
	foreign := make([]uint32, k, k+arenaChunkWords)
	copy(foreign, words)
	adopted := AdoptFrozen(testComposite(5), foreign, refs, last)
	if adopted.Name() != "arena-test" || adopted.Refs() != refs {
		t.Fatalf("adopted arena %q holds %d refs, want %q with %d", adopted.Name(), adopted.Refs(), "arena-test", refs)
	}

	want := testComposite(5)
	rp := adopted.NewReplayer()
	got := make([]Ref, 997)
	exp := make([]Ref, 997)
	for done := uint64(0); done < refs+5000; done += uint64(len(got)) {
		rp.NextBatch(got)
		want.NextBatch(exp)
		for i := range got {
			if got[i] != exp[i] {
				t.Fatalf("ref %d (adopted prefix %d): got %+v want %+v", done+uint64(i), refs, got[i], exp[i])
			}
		}
	}
	// Extension appended into the copied tail, never the adopted memory.
	for i, w := range foreign[:cap(foreign)] {
		if i < k && w != words[i] || i >= k && w != 0 {
			t.Fatalf("extension wrote into adopted memory at word %d", i)
		}
	}
}

// TestSnapshotPropagatesError stops a snapshot at the first failing span.
func TestSnapshotPropagatesError(t *testing.T) {
	a := NewArena(testComposite(9))
	a.Extend(arenaChunkWords + 10)
	boom := errors.New("disk full")
	spans := 0
	snap, err := a.Snapshot(func([]uint32) error { spans++; return boom })
	if !errors.Is(err, boom) || spans != 1 || snap != (ArenaSnapshot{}) {
		t.Fatalf("Snapshot = (%+v, %v) after %d spans, want the span error after 1", snap, err, spans)
	}
}

// TestWalkPackedRejectsTruncatedEscape: an escape record — or a long
// record — cut short by the end of the stream must be reported invalid,
// not walked past.
func TestWalkPackedRejectsTruncatedEscape(t *testing.T) {
	src, err := NewReplay("escape", []Ref{
		{Addr: 64, Gap: 1},                // short record: one word
		{Addr: 67, Gap: 2},                // unaligned delta: long record, two words
		{Addr: 128, Gap: -5, Write: true}, // negative gap: escape record, four words
	})
	if err != nil {
		t.Fatal(err)
	}
	a := NewArena(src)
	a.Extend(3)
	words, _ := snapshotWords(t, a)
	if refs, last, ok := WalkPacked(words[:7]); !ok || refs != 3 || last != 128 {
		t.Fatalf("WalkPacked(short + long + escape) = (%d, %d, %v), want (3, 128, true)", refs, last, ok)
	}
	cuts := []struct {
		words     int
		refs, end uint64
	}{
		{2, 1, 64}, // long record missing its second word
		{4, 2, 67}, // escape record missing three words
		{5, 2, 67},
		{6, 2, 67},
	}
	for _, c := range cuts {
		if refs, last, ok := WalkPacked(words[:c.words]); ok || refs != c.refs || last != c.end {
			t.Errorf("WalkPacked(cut to %d words) = (%d, %d, %v), want (%d, %d, false)", c.words, refs, last, ok, c.refs, c.end)
		}
	}
}

// TestAdoptFrozenTailAliasing pins where an adopted partial tail chunk
// lives. Words whose capacity covers a whole chunk from the tail's start
// (the store's chunk-rounded file mapping) are aliased in place until the
// first extension past the prefix, which copies the tail onto the heap and
// leaves the adopted memory untouched; exact-length heap words (the store's
// big-endian fallback, memStore) have their tail copied at adoption, since
// a chunk-sized view of them would run past their allocation.
func TestAdoptFrozenTailAliasing(t *testing.T) {
	live := NewArena(testComposite(3))
	live.Extend(arenaChunkWords + 3000)
	words, snap := snapshotWords(t, live)
	start := len(words) &^ arenaChunkMask
	if len(words)&arenaChunkMask == 0 {
		t.Fatalf("snapshot of %d words has no partial tail chunk", len(words))
	}
	// Chunks are compared by address as unsafe.Pointers: converting a
	// pointer into exact-length words to *arenaChunk is the very straddle
	// checkptr rejects.
	tail := func(a *Arena) unsafe.Pointer {
		cs := *a.chunks.Load()
		return unsafe.Pointer(cs[len(cs)-1])
	}

	chunked := make([]uint32, len(words), start+arenaChunkWords)
	copy(chunked, words)
	aliased := AdoptFrozen(testComposite(3), chunked, snap.Refs, snap.LastAddr)
	if tail(aliased) != unsafe.Pointer(&chunked[start]) {
		t.Fatal("a chunk-capacity tail was copied at adoption, want it aliased")
	}
	readers := *aliased.chunks.Load() // a reader's table from before the extension
	aliased.Extend(snap.Refs + 10_000)
	if unsafe.Pointer((*aliased.chunks.Load())[start>>arenaChunkShift]) == unsafe.Pointer(&chunked[start]) {
		t.Fatal("extension kept appending into the aliased tail chunk")
	}
	if unsafe.Pointer(readers[len(readers)-1]) != unsafe.Pointer(&chunked[start]) {
		t.Fatal("extension rewrote a chunk table a reader already holds")
	}
	for i, w := range chunked[:cap(chunked)] {
		if i < len(words) && w != words[i] || i >= len(words) && w != 0 {
			t.Fatalf("extension wrote into adopted memory at word %d", i)
		}
	}
	checkArenaStream(t, aliased, 3, snap.Refs+10_000)

	exact := append([]uint32(nil), words...)[:len(words):len(words)]
	copied := AdoptFrozen(testComposite(3), exact, snap.Refs, snap.LastAddr)
	if tail(copied) == unsafe.Pointer(&exact[start]) {
		t.Fatal("an exact-length tail was aliased, want it copied at adoption")
	}
	if unsafe.Pointer((*copied.chunks.Load())[0]) != unsafe.Pointer(&exact[0]) {
		t.Fatal("a full chunk was copied at adoption, want it aliased")
	}
	checkArenaStream(t, copied, 3, snap.Refs+10_000)
}

// checkArenaStream requires a fresh replayer over a to reproduce
// testComposite(seed)'s first n references.
func checkArenaStream(t *testing.T, a *Arena, seed, n uint64) {
	t.Helper()
	rp, want := a.NewReplayer(), testComposite(seed)
	got, exp := make([]Ref, 1000), make([]Ref, 1000)
	for done := uint64(0); done < n; done += uint64(len(got)) {
		rp.NextBatch(got)
		want.NextBatch(exp)
		for i := range got {
			if got[i] != exp[i] {
				t.Fatalf("ref %d: got %+v want %+v", done+uint64(i), got[i], exp[i])
			}
		}
	}
}
