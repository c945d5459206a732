package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"ascc/internal/trace"
)

// testGen builds a representative multi-component generator — the mixture
// shape of the workload models, including escape-triggering far jumps
// between components.
func testGen(seed uint64) *trace.Composite {
	return trace.NewComposite("store-test", seed, 170, []trace.Mixed{
		{Comp: &trace.ZipfRegions{Base: 0, Footprint: 512 * 1024, NumRegions: 32, Skew: 0.9, BurstLen: 4}, Weight: 40, WriteFrac: 0.2},
		{Comp: &trace.RandomWalk{Base: 1 << 24, Footprint: 1 << 23, Align: 32}, Weight: 2},
		{Comp: &trace.HotLines{Base: 1 << 25, Lines: 512}, Weight: 90, WriteFrac: 0.25},
	})
}

// mustSave builds an arena over testGen(seed), extends it to at least
// minRefs, and publishes it under key.
func mustSave(t *testing.T, s *Store, key string, seed, minRefs uint64) *trace.Arena {
	t.Helper()
	a := trace.NewArena(testGen(seed))
	a.Extend(minRefs)
	if err := s.Save(key, a); err != nil {
		t.Fatalf("Save(%q): %v", key, err)
	}
	return a
}

// checkStream requires the replayer to reproduce testGen(seed)'s stream
// for n references.
func checkStream(t *testing.T, rp *trace.Replayer, seed uint64, n int) {
	t.Helper()
	want := testGen(seed)
	got := make([]trace.Ref, 731)
	exp := make([]trace.Ref, 731)
	for done := 0; done < n; {
		k := len(got)
		if done+k > n {
			k = n - done
		}
		rp.NextBatch(got[:k])
		want.NextBatch(exp[:k])
		for i := 0; i < k; i++ {
			if got[i] != exp[i] {
				t.Fatalf("ref %d: got %+v want %+v", done+i, got[i], exp[i])
			}
		}
		done += k
	}
}

// TestStoreRoundTrip is the core contract: save a synthesised arena, load
// it in a "fresh process" (new store, fresh generator), and replay well
// past the stored prefix — the adopted part must be bit-identical and the
// extension past it must continue the stream seamlessly (fast-forward).
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	const key = "mix/0/store-test/1/8"
	a := mustSave(t, New(dir), key, 7, 150_000)
	stored := a.Refs()

	s2 := New(dir)
	defer s2.Close()
	loaded := s2.Load(key, testGen(7))
	if loaded == nil {
		t.Fatalf("Load missed a just-saved key (stats %+v)", s2.Stats())
	}
	if got := loaded.Refs(); got != stored {
		t.Fatalf("loaded arena holds %d refs, saved %d", got, stored)
	}
	if st := s2.Stats(); st.Loads != 1 || st.Misses != 0 || st.Corrupt != 0 {
		t.Fatalf("stats %+v after one clean load", st)
	}
	// Replay to double the stored prefix: crosses adoption boundary,
	// fast-forwards the fresh generator exactly once.
	checkStream(t, loaded.NewReplayer(), 7, int(2*stored))
}

// TestStoreRatchet pins the flush ratchet: an arena loaded from the store
// and then extended saves back a longer prefix, which the next load serves
// without any synthesis of the first part.
func TestStoreRatchet(t *testing.T) {
	dir := t.TempDir()
	const key = "mix/1/store-test/1/8"
	s := New(dir)
	defer s.Close()
	first := mustSave(t, s, key, 3, 40_000).Refs()

	loaded := s.Load(key, testGen(3))
	if loaded == nil {
		t.Fatal("load missed")
	}
	loaded.Extend(2 * first)
	if err := s.Save(key, loaded); err != nil {
		t.Fatalf("re-save: %v", err)
	}

	again := s.Load(key, testGen(3))
	if again == nil {
		t.Fatal("reload missed")
	}
	if got := again.Refs(); got < 2*first {
		t.Fatalf("ratcheted file holds %d refs, want >= %d", got, 2*first)
	}
	checkStream(t, again.NewReplayer(), 3, int(again.Refs())+1000)
}

// TestStoreAdoptsPartialTail loads a file whose payload ends mid-chunk, so
// the mapping's chunk-rounded span backs the arena's tail chunk in place,
// and replays past the stored prefix so the arena extends: the stream must
// equal live synthesis throughout, and the extension (which copies the tail
// to the heap before appending) must leave the file's bytes unchanged.
// Under -race the checkptr instrumentation also checks that the aliased
// tail chunk lies inside the mapping.
func TestStoreAdoptsPartialTail(t *testing.T) {
	dir := t.TempDir()
	const key = "mix/2/store-test/1/8"
	s := New(dir)
	defer s.Close()
	saved := mustSave(t, s, key, 11, 200_000)
	snap, err := saved.Snapshot(func([]uint32) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if snap.Words%trace.ChunkWords == 0 {
		t.Fatalf("payload of %d words fills its last chunk; the test needs a partial tail", snap.Words)
	}
	before, err := os.ReadFile(s.path(key))
	if err != nil {
		t.Fatal(err)
	}
	if f, err := os.Open(s.path(key)); err == nil && hostLittleEndian {
		off := payloadOff(len(key))
		data, unmap, err := mmapFile(f, len(before), mapSpan(len(before), off))
		f.Close()
		if err == nil {
			words := payloadWords(data, off, snap.Words, true)
			want := (snap.Words + trace.ChunkWords - 1) &^ (trace.ChunkWords - 1)
			if len(words) != int(snap.Words) || uint64(cap(words)) != want {
				t.Errorf("mapped payload has len %d cap %d, want len %d cap %d (whole chunks)", len(words), cap(words), snap.Words, want)
			}
			unmap()
		}
	}

	loaded := s.Load(key, testGen(11))
	if loaded == nil {
		t.Fatalf("Load missed a just-saved key (stats %+v)", s.Stats())
	}
	n := int(snap.Refs) + 2*trace.ChunkWords
	checkStream(t, loaded.NewReplayer(), 11, n)
	if got := loaded.Refs(); got < uint64(n) {
		t.Fatalf("arena holds %d refs after replaying %d, want it extended", got, n)
	}
	after, err := os.ReadFile(s.path(key))
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("extending an adopted arena changed its store file")
	}
	if st := s.Stats(); st.Loads != 1 || st.Corrupt != 0 {
		t.Fatalf("stats %+v after one clean load", st)
	}
}

// TestStoreMiss: loading an unknown key is a counted miss, not an error.
func TestStoreMiss(t *testing.T) {
	s := New(t.TempDir())
	if a := s.Load("absent", testGen(1)); a != nil {
		t.Fatal("Load invented an arena")
	}
	if st := s.Stats(); st.Misses != 1 || st.Corrupt != 0 {
		t.Fatalf("stats %+v, want one miss", st)
	}
}

// TestStoreEmptyArenaSkipped: an arena with no frozen refs publishes
// nothing.
func TestStoreEmptyArenaSkipped(t *testing.T) {
	dir := t.TempDir()
	s := New(dir)
	if err := s.Save("empty", trace.NewArena(testGen(1))); err != nil {
		t.Fatalf("Save of empty arena: %v", err)
	}
	ents, err := os.ReadDir(dir)
	if err == nil && len(ents) != 0 {
		t.Fatalf("empty arena published %d files", len(ents))
	}
}

// TestStoreRejectsCorruption is the acceptance matrix: every way a file
// can be damaged — truncated mid-header, truncated mid-payload, bit
// flips in payload or header, a stale codec version, trailing garbage, a
// colliding file holding the wrong key — must read as a clean rejection
// (nil + corrupt counter), after which live synthesis and a flush
// repopulate the store.
func TestStoreRejectsCorruption(t *testing.T) {
	const key = "mix/2/store-test/1/8"
	mutations := []struct {
		name   string
		mutate func(b []byte) []byte
	}{
		{"truncated-mid-header", func(b []byte) []byte { return b[:17] }},
		{"truncated-mid-payload", func(b []byte) []byte { return b[:len(b)-13] }},
		{"payload-bit-flip", func(b []byte) []byte { b[len(b)-9] ^= 0x40; return b }},
		{"header-bit-flip", func(b []byte) []byte { b[offRefs] ^= 0x01; return b }},
		{"version-mismatch", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[offVersion:], trace.PackCodecVersion+1)
			// A future writer would stamp a correct checksum for its own
			// format; mimic that so only the version gate can reject.
			binary.LittleEndian.PutUint64(b[offHeaderSum:], headerChecksum(b, len(key)))
			return b
		}},
		{"trailing-garbage", func(b []byte) []byte { return append(b, 0xde, 0xad, 0xbe, 0xef) }},
		{"word-count-overflow", func(b []byte) []byte {
			// A word count whose payload size wraps the int multiply back
			// to the file's true size, behind a valid header checksum.
			words := binary.LittleEndian.Uint64(b[offWords:])
			binary.LittleEndian.PutUint64(b[offWords:], words+1<<62)
			binary.LittleEndian.PutUint64(b[offHeaderSum:], headerChecksum(b, len(key)))
			return b
		}},
		{"wrong-key", nil}, // handled specially below
		{"empty-file", func(b []byte) []byte { return nil }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			dir := t.TempDir()
			s := New(dir)
			defer s.Close()
			mustSave(t, s, key, 9, 30_000)
			path := s.path(key)
			if m.name == "wrong-key" {
				// A file whose header names a different key parked at
				// this key's path (hash collision stand-in).
				other := New(dir)
				mustSave(t, other, "mix/3/other/1/8", 9, 30_000)
				if err := os.Rename(other.path("mix/3/other/1/8"), path); err != nil {
					t.Fatal(err)
				}
			} else {
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, m.mutate(b), 0o644); err != nil {
					t.Fatal(err)
				}
			}

			if a := s.Load(key, testGen(9)); a != nil {
				t.Fatal("Load adopted a damaged file")
			}
			if st := s.Stats(); st.Corrupt != 1 {
				t.Fatalf("stats %+v, want exactly one corrupt rejection", st)
			}

			// Fallback and self-heal: the cache regenerates live, a flush
			// overwrites the damaged file, and the next load is clean.
			c := trace.NewArenaCache(0)
			c.SetStore(s)
			a := c.Get(key, testGen(9))
			a.Extend(30_000)
			checkStream(t, a.NewReplayer(), 9, 30_000)
			if err := c.FlushStore(); err != nil {
				t.Fatalf("FlushStore: %v", err)
			}
			if healed := s.Load(key, testGen(9)); healed == nil {
				t.Fatalf("store did not heal after flush (stats %+v)", s.Stats())
			}
		})
	}
}

// v1File renders refs as a codec-version-1 chunk file for key, the layout
// stores held before version 2: one little-endian 64-bit word per
// reference (write flag in bit 0, a 12-bit gap, a 51-bit zigzag byte
// delta), three-word escape records, and the payload checksum over whole
// words.
func v1File(key string, refs []trace.Ref) []byte {
	var words []uint64
	var prev uint64
	for _, r := range refs {
		var wr uint64
		if r.Write {
			wr = 1
		}
		delta := int64(r.Addr - prev)
		zz := uint64(delta<<1) ^ uint64(delta>>63)
		gap := uint64(uint32(r.Gap))
		if zz < 1<<51 && gap < 0xfff {
			words = append(words, zz<<13|gap<<1|wr)
		} else {
			words = append(words, 0xfff<<1, r.Addr, gap<<1|wr)
		}
		prev = r.Addr
	}
	off := payloadOff(len(key))
	b := make([]byte, off+8*len(words))
	copy(b, magic)
	binary.LittleEndian.PutUint32(b[offVersion:], 1)
	binary.LittleEndian.PutUint32(b[offKeyLen:], uint32(len(key)))
	binary.LittleEndian.PutUint64(b[offWords:], uint64(len(words)))
	binary.LittleEndian.PutUint64(b[offRefs:], uint64(len(refs)))
	binary.LittleEndian.PutUint64(b[offLastAddr:], prev)
	var d digest
	for i, w := range words {
		binary.LittleEndian.PutUint64(b[off+8*i:], w)
		d.word(w)
	}
	binary.LittleEndian.PutUint64(b[offPayloadSum:], d.sum())
	copy(b[headerLen:], key)
	binary.LittleEndian.PutUint64(b[offHeaderSum:], headerChecksum(b, len(key)))
	return b
}

// TestStoreRejectsV1File: a file a version-1 store wrote — sound in every
// other respect — is rejected by the version check, and the stream
// re-synthesises identically and is saved back in the current layout. No
// version-1 decoder is kept.
func TestStoreRejectsV1File(t *testing.T) {
	// v1File is the real version-1 layout: for the stream TestSaveFileBytes
	// saved under version 1 (half its current length: 64 Ki-word chunks,
	// no long-record gaps) it renders the file that test pinned then.
	pinned := make([]trace.Ref, 3*(1<<16)/2)
	addr := uint64(1 << 30)
	for i := range pinned {
		addr += uint64(i%7) * 32
		pinned[i] = trace.Ref{Addr: addr, Gap: int32(i % 5), Write: i%3 == 0}
		if i%1000 == 999 {
			pinned[i].Addr = 1<<62 + uint64(i)
		}
	}
	const v1SavedFileSHA256 = "0c5e64ae28a6753042986945fcfea725a1ef6a3f3224356c236583ccda9d3aba"
	if sum := sha256.Sum256(v1File("pinned/stream", pinned)); hex.EncodeToString(sum[:]) != v1SavedFileSHA256 {
		t.Fatalf("v1File renders SHA-256 %x, want the version-1 pin %s", sum, v1SavedFileSHA256)
	}

	const key = "mix/5/store-test/1/8"
	refs := make([]trace.Ref, 20_000)
	testGen(13).NextBatch(refs)
	old := v1File(key, refs)
	if _, ok := parseHeader(old, key); ok {
		t.Fatal("parseHeader accepted a version-1 header")
	}
	// Only the version stands in the way: restamped (with the header
	// checksum a writer would give it) the header itself parses.
	restamped := append([]byte(nil), old...)
	binary.LittleEndian.PutUint32(restamped[offVersion:], trace.PackCodecVersion)
	binary.LittleEndian.PutUint64(restamped[offHeaderSum:], headerChecksum(restamped, len(key)))
	if _, ok := parseHeader(restamped, key); !ok {
		t.Fatal("the version-1 file's header is malformed beyond its version")
	}

	s := New(t.TempDir())
	defer s.Close()
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(key), old, 0o644); err != nil {
		t.Fatal(err)
	}
	if a := s.Load(key, testGen(13)); a != nil {
		t.Fatal("Load adopted a version-1 file")
	}
	if st := s.Stats(); st.Corrupt != 1 || st.Loads != 0 {
		t.Fatalf("stats %+v, want one rejection", st)
	}

	c := trace.NewArenaCache(0)
	c.SetStore(s)
	a := c.Get(key, testGen(13))
	checkStream(t, a.NewReplayer(), 13, len(refs))
	if err := c.FlushStore(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(s.path(key))
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(b[offVersion:]); v != trace.PackCodecVersion {
		t.Fatalf("flush wrote codec version %d, want %d", v, trace.PackCodecVersion)
	}
	reloaded := s.Load(key, testGen(13))
	if reloaded == nil {
		t.Fatalf("the re-synthesised file does not load (stats %+v)", s.Stats())
	}
	rp := reloaded.NewReplayer()
	for i, want := range refs {
		if got := rp.Next(); got != want {
			t.Fatalf("ref %d: re-synthesised %+v, version-1 stream %+v", i, got, want)
		}
	}
}

// writeRawFile publishes a hand-built chunk file with *valid* checksums
// for the given payload and header claims — the adversarial shape
// checksums alone cannot catch.
func writeRawFile(t *testing.T, s *Store, key string, words []uint32, refs, lastAddr uint64) {
	t.Helper()
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(key), rawFileBytes(key, words, refs, lastAddr), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestStoreRejectsStructuralLies covers files that pass every checksum but
// whose payload disagrees with the header's claims: a truncated long or
// escape record (would march a replayer past the chunk table), a lying
// reference count, a lying final address. WalkPacked must veto all four.
func TestStoreRejectsStructuralLies(t *testing.T) {
	const key = "mix/4/store-test/1/8"
	// One short record (delta +32 = one unit, zigzag 2; gap 1; read), then
	// a long record's first word missing its second, or an escape marker
	// missing its three operand words.
	packedRef := uint32(2)<<9 | uint32(1)<<2
	longFirst := uint32(2)<<14 | 1
	refs, last, ok := trace.WalkPacked([]uint32{packedRef})
	if !ok || refs != 1 || last != 32 {
		t.Fatalf("self-check: WalkPacked on one short record gave refs=%d last=%d ok=%v", refs, last, ok)
	}
	cases := []struct {
		name           string
		words          []uint32
		refs, lastAddr uint64
	}{
		{"truncated-long", []uint32{packedRef, longFirst}, 2, 33},
		{"truncated-escape", []uint32{packedRef, escapeMarker, 0, 0}, 2, 32},
		{"lying-ref-count", []uint32{packedRef}, 2, 32},
		{"lying-last-addr", []uint32{packedRef}, 1, 33},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := New(t.TempDir())
			defer s.Close()
			writeRawFile(t, s, key, c.words, c.refs, c.lastAddr)
			if a := s.Load(key, testGen(1)); a != nil {
				t.Fatal("Load adopted a structurally lying file")
			}
			if st := s.Stats(); st.Corrupt != 1 {
				t.Fatalf("stats %+v, want one corrupt rejection", st)
			}
		})
	}
	// The honest twin of the lies must load.
	s := New(t.TempDir())
	defer s.Close()
	writeRawFile(t, s, key, []uint32{packedRef}, 1, 32)
	a := s.Load(key, testGen(1))
	if a == nil {
		t.Fatalf("honest hand-built file rejected (stats %+v)", s.Stats())
	}
	if got := a.NewReplayer().Next(); got != (trace.Ref{Addr: 32, Gap: 1}) {
		t.Fatalf("hand-built ref decoded as %+v", got)
	}
}

// TestCacheReadThroughAndEvictionWriteBehind pins the two-tier protocol:
// a cache miss reads through to the store, an eviction persists a dirty
// arena before dropping it, and FlushStore only rewrites what grew.
func TestCacheReadThroughAndEvictionWriteBehind(t *testing.T) {
	dir := t.TempDir()
	s := New(dir)
	defer s.Close()

	// Session 1: synthesise two streams, flush.
	c1 := trace.NewArenaCache(0)
	c1.SetStore(s)
	c1.Get("k/a", testGen(1)).Extend(50_000)
	c1.Get("k/b", testGen(2)).Extend(50_000)
	if err := c1.FlushStore(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if st := s.Stats(); st.Saves != 2 {
		t.Fatalf("stats %+v, want 2 saves", st)
	}
	// A second flush with nothing grown must write nothing.
	if err := c1.FlushStore(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Saves != 2 {
		t.Fatalf("clean flush rewrote files: %+v", st)
	}

	// Session 2: a fresh cache on the same store adopts both streams.
	s2 := New(dir)
	defer s2.Close()
	c2 := trace.NewArenaCache(0)
	c2.SetStore(s2)
	a := c2.Get("k/a", testGen(1))
	b := c2.Get("k/b", testGen(2))
	if st := s2.Stats(); st.Loads != 2 {
		t.Fatalf("stats %+v, want 2 read-through loads", st)
	}
	checkStream(t, a.NewReplayer(), 1, int(a.Refs()))
	checkStream(t, b.NewReplayer(), 2, int(b.Refs()))

	// Eviction write-behind: a tiny budget forces the cold arena out;
	// its grown prefix must hit the disk on the way.
	dir3 := t.TempDir()
	s3 := New(dir3)
	defer s3.Close()
	c3 := trace.NewArenaCache(1) // any two arenas overshoot
	c3.SetStore(s3)
	c3.Get("cold", testGen(5)).Extend(10_000)
	c3.Get("hot", testGen(6)).Extend(10_000)
	c3.Get("hot", testGen(6)) // sweep: evicts "cold"
	if st := s3.Stats(); st.Saves == 0 {
		t.Fatalf("eviction dropped a dirty arena without saving (stats %+v)", st)
	}
	if re := s3.Load("cold", testGen(5)); re == nil {
		t.Fatalf("evicted arena not loadable (stats %+v)", s3.Stats())
	}
}

// TestConcurrentPublish is the -race acceptance pin for atomic publish:
// writers republishing ever-longer prefixes of the same key race against
// readers loading and replaying it, across two Store handles (distinct
// "processes" sharing the directory). A reader must never observe a
// partial or torn file — every load either misses (before the first
// publish) or adopts a complete, valid prefix; the corrupt counter stays
// zero throughout.
func TestConcurrentPublish(t *testing.T) {
	dir := t.TempDir()
	const key = "race/0/store-test/1/8"
	writer := New(dir)
	reader := New(dir)
	defer reader.Close()

	exp := make([]trace.Ref, 60_000)
	testGen(4).NextBatch(exp)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		a := trace.NewArena(testGen(4))
		for grow := uint64(2_000); grow <= 60_000; grow += 2_000 {
			a.Extend(grow)
			if err := writer.Save(key, a); err != nil {
				t.Errorf("Save: %v", err)
				return
			}
		}
	}()

	const readers = 4
	verify := func(a *trace.Arena) {
		rp := a.NewReplayer()
		buf := make([]trace.Ref, 512)
		n := int(a.Refs())
		for done := 0; done < n; done += len(buf) {
			k := len(buf)
			if done+k > n {
				k = n - done
			}
			rp.NextBatch(buf[:k])
			for j := 0; j < k; j++ {
				if done+j < len(exp) && buf[j] != exp[done+j] {
					t.Errorf("ref %d diverged under concurrent publish", done+j)
					return
				}
			}
		}
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if a := reader.Load(key, testGen(4)); a != nil {
					verify(a)
				} // pre-publish miss: fine
			}
		}()
	}
	wg.Wait()

	if st := reader.Stats(); st.Corrupt != 0 {
		t.Fatalf("reader saw %d corrupt files during atomic publishes (stats %+v)", st.Corrupt, st)
	}
	// The fully published file must load cleanly once the dust settles.
	final := reader.Load(key, testGen(4))
	if final == nil || final.Refs() < 60_000 {
		t.Fatalf("final load failed or short (stats %+v)", reader.Stats())
	}
	verify(final)
	// No temp debris beyond the published file once writers are done.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Fatalf("leaked temp file %s", e.Name())
		}
	}
}

// TestStorePathStability: the file name must be a pure function of the
// key (cross-process rendezvous) and distinct for distinct keys.
func TestStorePathStability(t *testing.T) {
	s := New("/tmp/x")
	if s.path("mix/0/a/1/8") != s.path("mix/0/a/1/8") {
		t.Fatal("path not deterministic")
	}
	keys := []string{"mix/0/a/1/8", "mix/1/a/1/8", "single/0/a/1/8", "mt/0/a/1/8", "mix/0/a/2/8", "mix/0/a/1/4"}
	seen := map[string]string{}
	for _, k := range keys {
		p := s.path(k)
		if prev, dup := seen[p]; dup {
			t.Fatalf("keys %q and %q collide on %s", prev, k, p)
		}
		seen[p] = k
	}
}

// savedFileSHA256 is the SHA-256 of the file TestSaveFileBytes publishes.
// The layout is the codec's contract with every store already on disk, so
// a change here is a format change: bump trace.PackCodecVersion instead.
const savedFileSHA256 = "043be8b1eac60898ed5cb22ebc9748fc10b333b9dfea190e07a798d1aa61986d"

// TestSaveFileBytes pins the exact bytes Save publishes for a fixed
// two-chunk stream of short records with long and escape records among
// them, on the host's own write path and,
// on little-endian hosts, again through the encode-and-buffer path
// big-endian hosts take, which must write the same bytes.
func TestSaveFileBytes(t *testing.T) {
	refs := make([]trace.Ref, 3*trace.ChunkWords/2)
	addr := uint64(1 << 30)
	for i := range refs {
		addr += uint64(i%7) * 32
		refs[i] = trace.Ref{Addr: addr, Gap: int32(i % 5), Write: i%3 == 0}
		switch i % 1000 {
		case 999:
			refs[i].Addr = 1<<62 + uint64(i) // far jump: escape record
		case 500:
			refs[i].Gap = 300 // gap past the short field: long record
		}
	}
	modes := []bool{hostLittleEndian}
	if hostLittleEndian {
		modes = append(modes, false)
	}
	defer func(le bool) { hostLittleEndian = le }(hostLittleEndian)
	for _, le := range modes {
		hostLittleEndian = le
		s := New(t.TempDir())
		a := trace.NewArena(mustReplay(t, refs))
		a.Extend(uint64(len(refs)))
		if err := s.Save("pinned/stream", a); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(s.path("pinned/stream"))
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != savedFileSHA256 {
			t.Errorf("little-endian path %v: file SHA-256 %x, want %s", le, sum, savedFileSHA256)
		}
		got := s.Load("pinned/stream", mustReplay(t, refs))
		if got == nil || got.Refs() != a.Refs() {
			t.Fatalf("little-endian path %v: saved file does not load back", le)
		}
		s.Close()
	}
}

// TestPayloadDigestTagsTail: the payload digest length-tags a final odd
// word, so a payload and the same payload plus a zero word digest apart.
func TestPayloadDigestTagsTail(t *testing.T) {
	words := make([]uint32, 41)
	for i := range words {
		words[i] = uint32(i)*0x9e3779b9 + 7
	}
	sum := func(ws []uint32) uint64 {
		b := make([]byte, 4*len(ws))
		for i, w := range ws {
			binary.LittleEndian.PutUint32(b[4*i:], w)
		}
		var d digest
		d.bytes(b)
		return d.sum()
	}
	if sum(words) == sum(append(words[:41:41], 0)) {
		t.Error("a trailing zero word left the digest unchanged")
	}
	if sum(words[:40]) == sum(words[:41]) {
		t.Error("an odd last word left the digest unchanged")
	}
}
