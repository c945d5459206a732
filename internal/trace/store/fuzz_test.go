package store

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"ascc/internal/trace"
)

// fuzzKey is the fixed key the fuzzer plants candidate files under.
const fuzzKey = "fuzz/0/store-test/1/8"

// FuzzStoreRoundTrip attacks the chunk-file codec from both ends:
//
//   - the input bytes are planted verbatim as the on-disk file for a key,
//     and Load must either reject cleanly or adopt an arena whose full
//     prefix replays and extends without panicking — whatever the header,
//     checksums, key block or escape records claim;
//   - the input bytes are decoded as a reference sequence (the FuzzRefCodec
//     record format), round-tripped through Save + Load, and the replay
//     must be bit-identical to the source stream.
//
// The committed corpus under testdata/fuzz covers a valid file plus the
// rejection matrix: truncations mid-header and mid-payload, bit-flipped
// payloads and headers, version-mismatch headers, and a structurally
// truncated escape record behind valid checksums. Wired into make fuzz.
func FuzzStoreRoundTrip(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Part 1: data as an untrusted file.
		s := New(t.TempDir())
		defer s.Close()
		if err := os.MkdirAll(s.dir, 0o755); err != nil {
			t.Skip()
		}
		if err := os.WriteFile(s.path(fuzzKey), data, 0o644); err != nil {
			t.Skip()
		}
		if a := s.Load(fuzzKey, testGen(1)); a != nil {
			// Adopted: the whole prefix must be walkable and the arena
			// extensible past it without faulting.
			rp := a.NewReplayer()
			buf := make([]trace.Ref, 256)
			n := a.Refs() + 512 // fixed bound: extension grows Refs() as we read
			for done := uint64(0); done < n; done += uint64(len(buf)) {
				rp.NextBatch(buf)
			}
		}

		// Part 2: data as a reference stream, round-tripped.
		refs := fuzzRefs(data)
		if len(refs) == 0 {
			return
		}
		src, err := trace.NewReplay("fuzz", refs)
		if err != nil {
			t.Skip()
		}
		a := trace.NewArena(src)
		a.Extend(uint64(len(refs)))
		if err := s.Save(fuzzKey, a); err != nil {
			t.Fatalf("Save: %v", err)
		}
		loaded := s.Load(fuzzKey, mustReplay(t, refs))
		if loaded == nil {
			t.Fatalf("round-trip load rejected its own file (stats %+v)", s.Stats())
		}
		if loaded.Refs() != a.Refs() {
			t.Fatalf("round-trip refs %d != %d", loaded.Refs(), a.Refs())
		}
		want := mustReplay(t, refs)
		rp := loaded.NewReplayer()
		n := 2*len(refs) + 7 // cross the adoption boundary into fast-forwarded extension
		for i := 0; i < n; i++ {
			if got, exp := rp.Next(), want.Next(); got != exp {
				t.Fatalf("ref %d: got %+v want %+v", i, got, exp)
			}
		}
	})
}

func mustReplay(t *testing.T, refs []trace.Ref) *trace.Replay {
	t.Helper()
	r, err := trace.NewReplay("fuzz", refs)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// fuzzRefs decodes the input as 13-byte reference records (8-byte address,
// 4-byte gap, 1-byte write flag) — the FuzzRefCodec format.
func fuzzRefs(data []byte) []trace.Ref {
	const rec = 13
	refs := make([]trace.Ref, 0, len(data)/rec)
	for len(data) >= rec {
		refs = append(refs, trace.Ref{
			Addr:  binary.LittleEndian.Uint64(data),
			Gap:   int32(binary.LittleEndian.Uint32(data[8:])),
			Write: data[12]&1 != 0,
		})
		data = data[rec:]
	}
	return refs
}

// corpusDir is where the committed seed corpus lives; `go test -fuzz`
// picks it up automatically alongside the f.Add seeds.
const corpusDir = "testdata/fuzz/FuzzStoreRoundTrip"

// TestFuzzCorpusCommitted keeps the committed corpus honest: every seed
// shape from fuzzSeeds must exist on disk in Go's corpus-file format
// (regenerate with ASCC_WRITE_CORPUS=1 after a codec change — the seeds
// embed checksums, so they go stale together with PackCodecVersion).
func TestFuzzCorpusCommitted(t *testing.T) {
	names := []string{
		"valid-file", "truncated-header", "truncated-payload",
		"payload-bit-flip", "header-bit-flip", "version-mismatch",
		"truncated-escape", "empty", "magic-only",
	}
	seeds := fuzzSeeds()
	if len(names) != len(seeds) {
		t.Fatalf("%d corpus names for %d seeds", len(names), len(seeds))
	}
	if os.Getenv("ASCC_WRITE_CORPUS") != "" {
		if err := os.MkdirAll(corpusDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, seed := range seeds {
			body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(seed)) + ")\n"
			if err := os.WriteFile(filepath.Join(corpusDir, names[i]), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, name := range names {
		b, err := os.ReadFile(filepath.Join(corpusDir, name))
		if err != nil {
			t.Fatalf("committed corpus entry missing (regenerate with ASCC_WRITE_CORPUS=1): %v", err)
		}
		want := "go test fuzz v1\n[]byte(" + strconv.Quote(string(seeds[i])) + ")\n"
		if string(b) != want {
			t.Errorf("corpus entry %s is stale (regenerate with ASCC_WRITE_CORPUS=1)", name)
		}
	}
}

// fuzzSeeds builds the in-code seed set: a valid file for fuzzKey plus
// every rejection-matrix mutation of it. The committed corpus mirrors
// these shapes (testdata/fuzz/FuzzStoreRoundTrip).
func fuzzSeeds() [][]byte {
	valid := validFileBytes()
	flipPayload := append([]byte(nil), valid...)
	flipPayload[len(flipPayload)-5] ^= 0x10
	flipHeader := append([]byte(nil), valid...)
	flipHeader[offWords] ^= 0x01
	version := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(version[offVersion:], trace.PackCodecVersion+7)
	binary.LittleEndian.PutUint64(version[offHeaderSum:], headerChecksum(version, len(fuzzKey)))
	return [][]byte{
		valid,
		valid[:17],            // truncated mid-header
		valid[:len(valid)-11], // truncated mid-payload
		flipPayload,
		flipHeader,
		version,
		truncatedEscapeBytes(),
		{},
		[]byte(magic),
	}
}

// validFileBytes renders a small valid chunk file for fuzzKey in memory.
func validFileBytes() []byte {
	words := []uint32{
		2<<9 | 1<<2,      // short: +32 delta, gap 1, read
		2<<14 | 3<<2 | 3, // long: +1 delta, gap 3, write ...
		0,                // ... its high word
		escapeMarker,     // escape marker, read ...
		0,                // ... absolute address 1<<40: low word
		1 << 8,           // ... high word
		5,                // ... gap 5
	}
	refs, last, ok := trace.WalkPacked(words)
	if !ok {
		panic("fuzz seed payload invalid")
	}
	return rawFileBytes(fuzzKey, words, refs, last)
}

// escapeMarker is the first word of an escape record (write flag clear):
// the tag bit and an all-ones long gap field.
const escapeMarker = 0xfff<<2 | 1

// truncatedEscapeBytes renders a file with valid checksums whose payload
// ends in an escape marker missing its three operand words.
func truncatedEscapeBytes() []byte {
	words := []uint32{2<<9 | 1<<2, escapeMarker}
	return rawFileBytes(fuzzKey, words, 2, 32)
}

// rawFileBytes is writeRawFile without the filesystem: header + key +
// payload with correct checksums for whatever claims are passed in.
func rawFileBytes(key string, words []uint32, refs, lastAddr uint64) []byte {
	off := payloadOff(len(key))
	b := make([]byte, off+4*len(words))
	copy(b, magic)
	binary.LittleEndian.PutUint32(b[offVersion:], trace.PackCodecVersion)
	binary.LittleEndian.PutUint32(b[offKeyLen:], uint32(len(key)))
	binary.LittleEndian.PutUint64(b[offWords:], uint64(len(words)))
	binary.LittleEndian.PutUint64(b[offRefs:], refs)
	binary.LittleEndian.PutUint64(b[offLastAddr:], lastAddr)
	for i, w := range words {
		binary.LittleEndian.PutUint32(b[off+4*i:], w)
	}
	var d digest
	d.bytes(b[off:])
	binary.LittleEndian.PutUint64(b[offPayloadSum:], d.sum())
	copy(b[headerLen:], key)
	binary.LittleEndian.PutUint64(b[offHeaderSum:], headerChecksum(b, len(key)))
	return b
}
