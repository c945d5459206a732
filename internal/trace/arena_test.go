package trace

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"ascc/internal/rng"
)

// testComposite builds a representative multi-component generator (Zipf
// regions, a random walk and a hot pool — the mixture shape the workload
// models use).
func testComposite(seed uint64) *Composite {
	return NewComposite("arena-test", seed, 170, []Mixed{
		{Comp: &ZipfRegions{Base: 0, Footprint: 512 * 1024, NumRegions: 32, Skew: 0.9, BurstLen: 4}, Weight: 40, WriteFrac: 0.2},
		{Comp: &RandomWalk{Base: 1 << 24, Footprint: 1 << 23, Align: 32}, Weight: 2},
		{Comp: &HotLines{Base: 1 << 25, Lines: 512}, Weight: 90, WriteFrac: 0.25},
	})
}

// TestReplayerMatchesGenerator is the core equivalence obligation: a
// replayer over an arena must yield exactly the stream its source
// generator produces, across uneven batch sizes and batch/Next mixing.
func TestReplayerMatchesGenerator(t *testing.T) {
	want := testComposite(7)
	rp := NewArena(testComposite(7)).NewReplayer()

	if rp.Name() != "arena-test" {
		t.Fatalf("replayer name %q", rp.Name())
	}
	sizes := []int{1, 64, 3, 256, 7, 1000, 64}
	step := 0
	for _, n := range sizes {
		got := make([]Ref, n)
		exp := make([]Ref, n)
		rp.NextBatch(got)
		want.NextBatch(exp)
		for i := range got {
			if got[i] != exp[i] {
				t.Fatalf("ref %d (batch of %d): got %+v want %+v", step+i, n, got[i], exp[i])
			}
		}
		step += n
	}
	for i := 0; i < 100; i++ {
		if g, w := rp.Next(), want.Next(); g != w {
			t.Fatalf("Next %d: got %+v want %+v", i, g, w)
		}
	}
}

// TestReplayerCrossesChunkBoundaries packs enough references to span
// several chunks, with periodic escape records positioned to straddle the
// chunk edges, and checks the decode against the source stream.
func TestReplayerCrossesChunkBoundaries(t *testing.T) {
	const n = 3*arenaChunkWords/2 + 17 // >1 chunk of two-word long records + escapes
	refs := make([]Ref, 0, 4096)
	r := rng.New(3)
	for i := 0; i < 4096; i++ {
		ref := Ref{Addr: r.Uint64() % (1 << 30), Gap: int32(r.Uint64() % 9), Write: r.Uint64()&1 == 0}
		if i%500 == 250 {
			ref.Addr = r.Uint64() // full-range address: forces an escape record
			ref.Gap = int32(5000 + i)
		}
		refs = append(refs, ref)
	}
	src, err := NewReplay("chunks", refs)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := NewReplay("chunks", refs)
	rp := NewArena(src).NewReplayer()
	got := make([]Ref, 731)
	exp := make([]Ref, 731)
	for done := 0; done < n; done += len(got) {
		rp.NextBatch(got)
		want.NextBatch(exp)
		for i := range got {
			if got[i] != exp[i] {
				t.Fatalf("ref %d: got %+v want %+v", done+i, got[i], exp[i])
			}
		}
	}
	if a := rp.a; a.Bytes() < arenaChunkBytes*2 {
		t.Fatalf("arena holds %d bytes; expected multiple chunks", a.Bytes())
	}
}

// TestEscapeRecords exercises every field of the long and escape paths
// directly: oversized gaps, negative gaps, unaligned deltas and deltas
// beyond each record's range, all of which must round-trip exactly.
func TestEscapeRecords(t *testing.T) {
	refs := []Ref{
		{Addr: 64, Gap: 3, Write: true},                      // short
		{Addr: 96, Gap: shortGapMax + 1, Write: false},       // gap past short: long
		{Addr: 128, Gap: longGapMask, Write: true},           // gap == long field max: escape
		{Addr: 160, Gap: -5, Write: true},                    // negative gap: escape
		{Addr: 1 << 60, Gap: 2, Write: false},                // delta overflow: escape
		{Addr: 0, Gap: 1, Write: true},                       // huge negative delta: escape
		{Addr: 32, Gap: 1 << 30, Write: false},               // huge gap: escape
		{Addr: 33, Gap: 0, Write: false},                     // unaligned delta: long
		{Addr: 1<<63 + 7, Gap: longGapMask - 1, Write: true}, // top-bit address: escape
		{Addr: 1<<63 + 7 - 1<<40, Gap: 5, Write: true},       // far negative delta: long
	}
	src, err := NewReplay("escape", refs)
	if err != nil {
		t.Fatal(err)
	}
	rp := NewArena(src).NewReplayer()
	for round := 0; round < 3; round++ { // Replay cycles: cross the wrap too
		for i, want := range refs {
			if got := rp.Next(); got != want {
				t.Fatalf("round %d ref %d: got %+v want %+v", round, i, got, want)
			}
		}
	}
}

// TestArenaConcurrentReplayers races several replayers of very different
// consumption rates against on-demand extension — the shape of concurrent
// policy runs sharing a mix's arena (run with -race via make race).
func TestArenaConcurrentReplayers(t *testing.T) {
	a := NewArena(testComposite(11))
	want := testComposite(11)
	const total = 40000
	exp := make([]Ref, total)
	want.NextBatch(exp)

	var wg sync.WaitGroup
	errs := make([]error, 6)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rp := a.NewReplayer()
			batch := 17 + 31*g // uneven rates
			buf := make([]Ref, batch)
			for done := 0; done+batch <= total; done += batch {
				rp.NextBatch(buf)
				for i := range buf {
					if buf[i] != exp[done+i] {
						t.Errorf("goroutine %d ref %d diverged", g, done+i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestArenaCacheSharingAndEviction pins the cache contract: same key →
// same arena; distinct keys → distinct arenas; exceeding the budget evicts
// the least recently used entry but never the one being acquired.
func TestArenaCacheSharingAndEviction(t *testing.T) {
	c := NewArenaCache(3 * arenaChunkBytes) // room for ~3 single-chunk arenas
	a1 := c.Get("k1", testComposite(1))
	if c.Get("k1", testComposite(1)) != a1 {
		t.Fatal("same key returned a different arena")
	}
	if c.Get("k2", testComposite(2)) == a1 {
		t.Fatal("distinct keys shared an arena")
	}
	if c.Len() != 2 {
		t.Fatalf("cache holds %d arenas, want 2", c.Len())
	}

	// Grow three arenas to one chunk each, then add a fourth: the budget
	// (3 chunks) forces the coldest out.
	a1.Extend(1)
	c.Get("k2", testComposite(2)).Extend(1)
	c.Get("k3", testComposite(3)).Extend(1)
	c.Get("k2", testComposite(2)) // refresh k2: k1 is now coldest
	c.Get("k3", testComposite(3))
	a4 := c.Get("k4", testComposite(4))
	a4.Extend(1)
	c.Get("k4", testComposite(4)) // re-acquire: triggers the budget sweep
	if c.Len() != 3 {
		t.Fatalf("cache holds %d arenas after eviction, want 3", c.Len())
	}
	if got := c.Get("k1", testComposite(1)); got == a1 {
		t.Fatal("evicted arena resurfaced instead of regenerating")
	}
	// The evicted arena's replayers must keep working.
	rp := a1.NewReplayer()
	want := testComposite(1)
	for i := 0; i < 1000; i++ {
		if g, w := rp.Next(), want.Next(); g != w {
			t.Fatalf("evicted arena replay diverged at ref %d", i)
		}
	}
}

// TestArenaCacheRaise pins the budget-reconciliation contract used by the
// harness pool: budgets only ever become more permissive. A lower bound is
// ignored, a higher bound wins, unbounded wins over any bound and is never
// revoked.
func TestArenaCacheRaise(t *testing.T) {
	c := NewArenaCache(100)
	c.Raise(50)
	if got := c.MaxBytes(); got != 100 {
		t.Fatalf("lower Raise shrank the budget to %d", got)
	}
	c.Raise(200)
	if got := c.MaxBytes(); got != 200 {
		t.Fatalf("higher Raise gave %d, want 200", got)
	}
	c.Raise(0)
	if got := c.MaxBytes(); got > 0 {
		t.Fatalf("unbounded Raise gave %d, want <= 0", got)
	}
	c.Raise(10)
	if got := c.MaxBytes(); got > 0 {
		t.Fatalf("bounded Raise revoked unbounded: %d", got)
	}

	// The raised budget must be effective, not just reported: under the
	// original one-chunk budget a second arena evicts the first; after
	// raising, both stay resident.
	c2 := NewArenaCache(arenaChunkBytes)
	c2.Get("a", testComposite(1)).Extend(1)
	c2.Get("b", testComposite(2)).Extend(1)
	c2.Get("b", testComposite(2))
	if got := c2.Len(); got != 1 {
		t.Fatalf("one-chunk budget kept %d arenas, want 1", got)
	}
	c2.Raise(4 * arenaChunkBytes)
	c2.Get("a", testComposite(1)).Extend(1)
	c2.Get("c", testComposite(3)).Extend(1)
	c2.Get("c", testComposite(3))
	if got := c2.Len(); got != 3 {
		t.Fatalf("raised budget kept %d arenas, want 3", got)
	}
}

// TestArenaCacheConcurrentExtendAccounting is the byte-budget regression
// under the racy shape the pool actually produces: replayers extending
// shared arenas past the cache budget while other goroutines acquire fresh
// keys (churning evictions), audit the accounting, and issue concurrent
// Raise calls. Run with -race via make race. The pinned invariants:
// accounted bytes never go negative, a lower concurrent Raise never shrinks
// the budget, every replayed stream stays bit-identical to its generator,
// and once extensions quiesce a single acquisition sweeps the cache back
// within budget (or down to the one entry being acquired).
func TestArenaCacheConcurrentExtendAccounting(t *testing.T) {
	const (
		budget  = 3 * arenaChunkBytes
		seeds   = 4
		total   = arenaChunkWords + 512 // two chunks per arena: any two arenas overshoot
		passes  = 3
		keyOf   = "extend-key-"
		batchSz = 997
	)
	exp := make([][]Ref, seeds)
	for s := range exp {
		exp[s] = make([]Ref, total)
		testComposite(uint64(s)).NextBatch(exp[s])
	}

	c := NewArenaCache(budget)
	done := make(chan struct{})
	var audit sync.WaitGroup
	audit.Add(1)
	go func() {
		defer audit.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if b := c.Bytes(); b < 0 {
				t.Errorf("accounted bytes drifted negative: %d", b)
				return
			}
			c.Raise(budget / 2) // lower: must be ignored even mid-churn
			if got := c.MaxBytes(); got != budget {
				t.Errorf("concurrent Raise shrank budget to %d", got)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < seeds; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]Ref, batchSz)
			for pass := 0; pass < passes; pass++ {
				s := (g + pass) % seeds
				a := c.Get(keyOf+string(rune('0'+s)), testComposite(uint64(s)))
				rp := a.NewReplayer()
				for off := 0; off+batchSz <= total; off += batchSz {
					rp.NextBatch(buf)
					for i := range buf {
						if buf[i] != exp[s][off+i] {
							t.Errorf("seed %d ref %d diverged under churn", s, off+i)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(done)
	audit.Wait()

	// Quiescent: one more acquisition must restore the budget invariant —
	// the sweep only stops early when the entry being acquired is the last
	// one standing.
	c.Get(keyOf+"0", testComposite(0))
	if b := c.Bytes(); b > budget && c.Len() > 1 {
		t.Fatalf("post-quiescence acquisition left %d bytes across %d arenas (budget %d)",
			b, c.Len(), budget)
	}
}

// TestArenaCacheUnbounded checks that a non-positive budget never evicts.
func TestArenaCacheUnbounded(t *testing.T) {
	c := NewArenaCache(0)
	for i := uint64(0); i < 8; i++ {
		c.Get(string(rune('a'+i)), testComposite(i)).Extend(1)
	}
	if c.Len() != 8 {
		t.Fatalf("unbounded cache evicted: %d entries, want 8", c.Len())
	}
	if c.Bytes() < 8*arenaChunkBytes {
		t.Fatalf("accounted bytes %d too small", c.Bytes())
	}
}

// refRecordSize is the fuzz input encoding: 8-byte address, 4-byte gap,
// 1-byte write flag per reference.
const refRecordSize = 13

// refsFromBytes decodes the fuzz input into a reference sequence.
func refsFromBytes(data []byte) []Ref {
	refs := make([]Ref, 0, len(data)/refRecordSize)
	for len(data) >= refRecordSize {
		refs = append(refs, Ref{
			Addr:  binary.LittleEndian.Uint64(data),
			Gap:   int32(binary.LittleEndian.Uint32(data[8:])),
			Write: data[12]&1 != 0,
		})
		data = data[refRecordSize:]
	}
	return refs
}

// refRecord encodes one reference in the fuzz input format (seed helper).
func refRecord(addr uint64, gap int32, write bool) []byte {
	b := make([]byte, refRecordSize)
	binary.LittleEndian.PutUint64(b, addr)
	binary.LittleEndian.PutUint32(b[8:], uint32(gap))
	if write {
		b[12] = 1
	}
	return b
}

// FuzzRefCodec round-trips arbitrary reference sequences through the
// packed codec: encode via an Arena, decode via a Replayer (in uneven
// batches, cycling past the sequence end), and require equality with the
// raw sequence. The committed corpus under testdata/fuzz covers the short
// fast path, oversized/negative gaps, delta overflow and unaligned
// addresses, and (boundary-*, from codecBoundaries) each record field at
// its largest value and one past it.
func FuzzRefCodec(f *testing.F) {
	concat := func(recs ...[]byte) []byte {
		var out []byte
		for _, r := range recs {
			out = append(out, r...)
		}
		return out
	}
	f.Add(concat(refRecord(64, 3, true), refRecord(128, 4, false), refRecord(96, 0, true)))
	f.Add(concat(refRecord(0, longGapMask, false), refRecord(1<<52, 2, true)))
	f.Add(concat(refRecord(1<<40, -1, true), refRecord(33, 1<<20, false)))
	f.Add(concat(refRecord(^uint64(0), 0, false), refRecord(0, -1<<31, true)))
	f.Fuzz(func(t *testing.T, data []byte) {
		refs := refsFromBytes(data)
		if len(refs) == 0 {
			return
		}
		src, err := NewReplay("fuzz", refs)
		if err != nil {
			t.Skip()
		}
		want, _ := NewReplay("fuzz", refs)
		rp := NewArena(src).NewReplayer()
		// Decode three full cycles plus a remainder in uneven batches.
		n := 3*len(refs) + 7
		sizes := []int{1, 5, 64, 2}
		got := make([]Ref, 64)
		exp := make([]Ref, 64)
		for done, si := 0, 0; done < n; si++ {
			k := sizes[si%len(sizes)]
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
	})
}

// The short-delta boundary script's addresses: a far base, then steps of
// the largest positive short delta, one unit past it, the largest negative
// short delta and one unit past that.
const (
	sdStep = shortDeltaMax / 2 << shortAlign
	sd0    = 1 << 40
	sd1    = sd0 + sdStep
	sd2    = sd1 + sdStep + 1<<shortAlign
	sd3    = sd2 - sdStep - 1<<shortAlign
	sd4    = sd3 - sdStep - 2<<shortAlign
)

// boundaryRef is one reference of a codec boundary script with the record
// width, in words, it must encode to.
type boundaryRef struct {
	ref   Ref
	words int
}

// codecBoundaries are reference scripts at every edge between the record
// formats: each field at its largest value in a record and one past it, an
// unaligned delta, negative gaps and the MaxInt32 gap a saturated sampled
// view emits. Each script starts from address 0 (the encoder's first delta
// base). They are FuzzRefCodec's committed boundary-* seeds.
var codecBoundaries = []struct {
	name string
	refs []boundaryRef
}{
	{"short-gap", []boundaryRef{
		{Ref{Addr: 32, Gap: shortGapMax}, 1},
		{Ref{Addr: 64, Gap: shortGapMax + 1, Write: true}, 2},
		{Ref{Addr: 96, Gap: 0, Write: true}, 1},
	}},
	{"short-delta", []boundaryRef{
		{Ref{Addr: sd0}, 2},
		{Ref{Addr: sd1, Gap: 1}, 1}, // largest positive short delta
		{Ref{Addr: sd2, Gap: 1}, 2}, // one unit past it
		{Ref{Addr: sd3}, 1},         // largest negative short delta
		{Ref{Addr: sd4, Write: true}, 2},
	}},
	{"unaligned-delta", []boundaryRef{
		{Ref{Addr: 1}, 2},
		{Ref{Addr: 17, Gap: 3}, 2},
		{Ref{Addr: 49, Gap: 3}, 1},
		{Ref{Addr: 48, Write: true}, 2},
	}},
	{"long-gap", []boundaryRef{
		{Ref{Addr: 32, Gap: longGapMask - 1}, 2},
		{Ref{Addr: 33, Gap: longGapMask - 1, Write: true}, 2},
		{Ref{Addr: 64, Gap: longGapMask}, 4},
		{Ref{Addr: 65, Gap: longGapMask}, 4},
	}},
	{"long-delta", []boundaryRef{
		{Ref{Addr: longDeltaMax / 2}, 2},                // largest positive long delta
		{Ref{Addr: longDeltaMax, Gap: 2}, 4},            // one byte past it
		{Ref{Addr: longDeltaMax / 2}, 2},                // largest negative long delta
		{Ref{Addr: math.MaxUint64 - 1, Write: true}, 4}, // one byte past it
	}},
	{"negative-gap", []boundaryRef{
		{Ref{Addr: 32, Gap: -1}, 4},
		{Ref{Addr: 64, Gap: math.MinInt32, Write: true}, 4},
		{Ref{Addr: 96, Gap: 1}, 1},
	}},
	{"saturated-gap", []boundaryRef{
		{Ref{Addr: 32, Gap: math.MaxInt32}, 4},
		{Ref{Addr: 33, Gap: math.MaxInt32, Write: true}, 4},
		{Ref{Addr: 64, Gap: math.MaxInt32 - 1}, 4},
	}},
}

// boundaryBytes renders a boundary script in the fuzz input format.
func boundaryBytes(refs []boundaryRef) []byte {
	var out []byte
	for _, b := range refs {
		out = append(out, refRecord(b.ref.Addr, b.ref.Gap, b.ref.Write)...)
	}
	return out
}

// TestRefCodecBoundaries holds each boundary script to its record widths,
// so the committed seeds keep sitting on the edges they are named for, and
// requires the committed corpus files to match the scripts (regenerate
// them with ASCC_WRITE_CORPUS=1 after a codec change).
func TestRefCodecBoundaries(t *testing.T) {
	const corpus = "testdata/fuzz/FuzzRefCodec"
	if os.Getenv("ASCC_WRITE_CORPUS") != "" {
		for _, c := range codecBoundaries {
			body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(boundaryBytes(c.refs))) + ")\n"
			if err := os.WriteFile(filepath.Join(corpus, "boundary-"+c.name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, c := range codecBoundaries {
		var prev uint64
		for i, b := range c.refs {
			var rec [maxRecordWords]uint32
			if n := encodeRef(&rec, prev, b.ref); n != b.words {
				t.Errorf("%s ref %d %+v (delta %d): %d-word record, want %d", c.name, i, b.ref, int64(b.ref.Addr-prev), n, b.words)
			}
			prev = b.ref.Addr
		}
		got, err := os.ReadFile(filepath.Join(corpus, "boundary-"+c.name))
		if err != nil {
			t.Fatalf("committed seed missing (regenerate with ASCC_WRITE_CORPUS=1): %v", err)
		}
		if want := "go test fuzz v1\n[]byte(" + strconv.Quote(string(boundaryBytes(c.refs))) + ")\n"; string(got) != want {
			t.Errorf("committed seed boundary-%s is stale (regenerate with ASCC_WRITE_CORPUS=1)", c.name)
		}
	}
}

// recordWords returns the width, in words, of the record whose first word
// is w.
func recordWords(w uint32) int {
	switch {
	case w&1 == 0:
		return 1
	case (w>>2)&longGapMask == longGapMask:
		return maxRecordWords
	}
	return 2
}

// straddleScript returns a stream of more than a chunk of words, in whole
// writer batches, whose first chunk boundary falls inside a dense run of
// four-word escape and two-word long records among short ones
// (straddlesChunk checks that it does).
func straddleScript() []Ref {
	const n = 560 * arenaGenBatch
	refs := make([]Ref, n)
	r := rng.New(11)
	addr := uint64(1 << 20)
	for i := range refs {
		addr += 32 * (r.Uint64() % 64)
		ref := Ref{Addr: addr, Gap: int32(r.Uint64() % 12), Write: r.Uint64()&3 == 0}
		switch {
		case i >= 121000 && i < 122000 && i%3 == 0, i%997 == 0:
			ref.Gap = int32(longGapMask + i) // oversized gap: escape record
		case i >= 121000 && i < 122000 && i%3 == 1, i%13 == 5:
			ref.Gap = int32(shortGapMax + 1 + i%7) // gap past short: long record
		}
		refs[i] = ref
	}
	return refs
}

// straddlesChunk reports whether a multi-word record of the packed stream
// words crosses the first chunk boundary.
func straddlesChunk(words []uint32) bool {
	for pos := 0; pos < len(words) && pos < arenaChunkWords; {
		w := recordWords(words[pos])
		if pos+w > arenaChunkWords {
			return true
		}
		pos += w
	}
	return false
}

// TestPackMatchesPerReferenceEncoder holds the batch writer to the
// per-reference encoder across a chunk boundary that long and escape
// records straddle (straddleScript), so the batch path hands over to
// appendRef mid-chunk and the tail chunk fills one word at a time. The
// Snapshot words must equal appendRef's and the replay must equal the
// source.
func TestPackMatchesPerReferenceEncoder(t *testing.T) {
	refs := straddleScript()
	n := uint64(len(refs))
	src, err := NewReplay("pack", refs)
	if err != nil {
		t.Fatal(err)
	}
	a := NewArena(src)
	a.Extend(n)
	got, snap := snapshotWords(t, a)

	enc := NewArena(&sliceGen{refs: refs})
	for _, ref := range refs {
		enc.appendRef(ref)
	}
	enc.wrefs = n
	enc.publish()
	want, wantSnap := snapshotWords(t, enc)
	if snap != wantSnap {
		t.Fatalf("snapshot %+v, per-reference encoder %+v", snap, wantSnap)
	}
	if !straddlesChunk(want) {
		t.Fatal("no record straddles the chunk boundary; the script no longer tests it")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("word %d: batch writer %#x, per-reference encoder %#x", i, got[i], want[i])
		}
	}

	rp := a.NewReplayer()
	for i, ref := range refs {
		if g := rp.Next(); g != ref {
			t.Fatalf("ref %d: replayed %+v, source %+v", i, g, ref)
		}
	}
}

// TestReplayWideRecordAcrossChunks: a long or escape record that the
// first chunk's end cuts after any of its words decodes from both chunks,
// read one reference at a time and in batches that run through the cut.
// The long record jumps 2^35 bytes, so its high word is not zero.
func TestReplayWideRecordAcrossChunks(t *testing.T) {
	for _, wide := range []struct {
		jump  uint64
		gap   int32
		words int
	}{{1 << 35, 3, 2}, {64, longGapMask, maxRecordWords}} {
		for cut := 1; cut < wide.words; cut++ {
			k := arenaChunkWords - cut // the wide record's first word
			refs := make([]Ref, k+2)
			addr := uint64(1 << 20)
			for i := range refs {
				ref := Ref{Addr: addr + 64, Gap: 3, Write: i%5 == 0}
				if i == k {
					ref = Ref{Addr: addr + wide.jump, Gap: wide.gap, Write: true}
				}
				refs[i], addr = ref, ref.Addr
			}
			a := NewArena(&sliceGen{refs: refs})
			a.Extend(uint64(len(refs)))
			words, _ := snapshotWords(t, a)
			if recordWords(words[k]) != wide.words {
				t.Fatalf("%d-word record cut after %d words: word %d is not its start", wide.words, cut, k)
			}
			one, batched := a.NewReplayer(), a.NewReplayer()
			buf := make([]Ref, 777)
			for i := 0; i < len(refs); i += len(buf) {
				batched.NextBatch(buf)
				for j, got := range buf[:min(len(buf), len(refs)-i)] {
					if got != refs[i+j] || one.Next() != refs[i+j] {
						t.Fatalf("%d-word record cut after %d words: ref %d decoded wrong, want %+v", wide.words, cut, i+j, refs[i+j])
					}
				}
			}
		}
	}
}

// TestExtensionDependsOnlyOnReads: two readers consume the same amounts of
// one stream, in different batch sizes and different interleavings, over
// two arenas. Each arena's length must come out the same, since extension
// targets sit on a fixed grid rather than wherever a batch ended — so the
// store files a parallel run flushes depend only on what its runs read.
func TestExtensionDependsOnlyOnReads(t *testing.T) {
	const long, short = 48_000, 24_000
	read := func(rp *Replayer, batch, n int) {
		buf := make([]Ref, batch)
		for done := 0; done < n; done += batch {
			rp.NextBatch(buf[:min(batch, n-done)])
		}
	}

	a := NewArena(testComposite(2))
	r1, r2 := a.NewReplayer(), a.NewReplayer()
	for done := 0; done < long; done += 8000 {
		read(r1, 64, 8000)
		if done < short {
			read(r2, 1000, 8000)
		}
	}

	b := NewArena(testComposite(2))
	read(b.NewReplayer(), 96, short)
	read(b.NewReplayer(), 1000, 1000)
	read(b.NewReplayer(), 500, long)

	if a.Refs() != b.Refs() {
		t.Fatalf("arena lengths %d and %d after the same reads in different interleavings", a.Refs(), b.Refs())
	}
	if want := uint64((long + arenaExtendGrid - 1) &^ (arenaExtendGrid - 1)); a.Refs() != want {
		t.Fatalf("arena holds %d refs after reading %d, want the grid point %d", a.Refs(), long, want)
	}
}
