// Package store persists packed trace arenas as memory-mapped chunk files,
// so every process — each asccbench invocation, golden-test run, fuzz
// round, CI job — replays streams the first one synthesised instead of
// regenerating them (DESIGN.md §14).
//
// One file per arena-cache key lives under the store root. The layout is a
// fixed 56-byte header (magic, codec version, key length, word count,
// reference count, final encoder address, payload checksum, header
// checksum), the key bytes zero-padded to an 8-byte boundary, then the raw
// little-endian packed 32-bit words exactly as the arena holds them in
// memory — 4 bytes for the common reference (trace.PackCodecVersion names
// the codec). A load is therefore open + mmap + validate: the mapped
// payload becomes the arena's chunk table directly — zero decode, zero
// per-reference allocation, no heap copy (trace.AdoptFrozen). The mapping
// extends past the end of the file far enough to cover the payload rounded
// up to a whole arena chunk, so the partial tail chunk is aliased like the
// full ones; the pages past the file are address space only, never read
// (the arena decodes below the file's word count and copies the tail to
// the heap before it first appends).
//
// Publishing is atomic: Save streams into a unique temp file in the store
// directory, fsyncs, then renames over the final name, so a concurrent
// reader in another process sees either the old complete file or the new
// complete file, never a partial one. Mappings taken before a rename keep
// referencing the old inode, which is immutable from then on — files are
// never modified in place.
//
// Every failure on the read side — absent file, short file, bad magic,
// codec-version mismatch, key mismatch, checksum mismatch, or a payload
// whose packed structure disagrees with its header (WalkPacked) — is a
// soft miss: Load returns nil, the caller synthesises live, and the next
// flush overwrites the bad file. Corruption can cost a regeneration pass
// but never a panic and never a wrong simulation result.
package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"unsafe"

	"ascc/internal/trace"
)

// Header layout (all fields little-endian):
//
//	[0:8)   magic "ASCCARN1"
//	[8:12)  codec version (trace.PackCodecVersion)
//	[12:16) key length in bytes
//	[16:24) payload word count (32-bit words)
//	[24:32) reference count the payload encodes
//	[32:40) final decoded address (delta base for extension)
//	[40:48) payload checksum (over the payload bytes)
//	[48:56) header checksum (over bytes [0:48) plus the key bytes)
//
// The key follows at [56:56+keyLen), zero-padded so the payload starts on
// an 8-byte boundary.
const (
	headerLen = 56
	magic     = "ASCCARN1"

	offVersion     = 8
	offKeyLen      = 12
	offWords       = 16
	offRefs        = 24
	offLastAddr    = 32
	offPayloadSum  = 40
	offHeaderSum   = 48
	maxKeyLen      = 1 << 12
	fileNameMaxKey = 48 // readable key prefix kept in the file name
)

// payloadOff returns the byte offset of the first packed word for a key of
// keyLen bytes: header plus key, rounded up to an 8-byte boundary.
func payloadOff(keyLen int) int {
	return headerLen + (keyLen+7)&^7
}

// Stats counts store traffic since construction.
type Stats struct {
	Loads   uint64 // successful loads (arena adopted from a file)
	Misses  uint64 // loads that found no file for the key
	Corrupt uint64 // loads that found a file and rejected it
	Saves   uint64 // files published
}

// Store is a persistent arena tier rooted at one directory. It implements
// trace.ArenaStore and is safe for concurrent use, including concurrent
// Save and Load of the same key from multiple goroutines or processes.
// The zero value is not usable; construct with New.
type Store struct {
	dir string

	loads, misses, corrupt, saves atomic.Uint64

	mu     sync.Mutex
	unmaps []func()
	closed bool
}

// New builds a store rooted at dir. No IO happens here: the directory is
// created lazily on the first Save, and an unreadable root simply makes
// every load a miss — the store degrades to live synthesis, it never
// fails construction.
func New(dir string) *Store { return &Store{dir: dir} }

// Stats returns a snapshot of the traffic counters.
func (s *Store) Stats() Stats {
	return Stats{
		Loads:   s.loads.Load(),
		Misses:  s.misses.Load(),
		Corrupt: s.corrupt.Load(),
		Saves:   s.saves.Load(),
	}
}

// DefaultDir returns the conventional store root,
// os.UserCacheDir()/ascc/arenas (~/.cache/ascc/arenas on Linux).
func DefaultDir() (string, error) {
	base, err := os.UserCacheDir()
	if err != nil {
		return "", fmt.Errorf("store: resolving user cache dir: %w", err)
	}
	return filepath.Join(base, "ascc", "arenas"), nil
}

// Close unmaps every file mapping this store handed out. It is only safe
// once no arena adopted from this store — and no replayer over one — will
// be touched again; the harness never calls it (mappings live for the
// process), it exists so tests and benchmarks that churn stores do not
// exhaust address space.
func (s *Store) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, f := range s.unmaps {
		f()
	}
	s.unmaps = nil
	s.closed = true
}

// track retains an unmap function until Close.
func (s *Store) track(unmap func()) {
	if unmap == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		unmap()
		return
	}
	s.unmaps = append(s.unmaps, unmap)
}

// Load returns the stored arena for key with src continuing the stream
// past the stored prefix, or nil when the store cannot serve it — no
// file, or a file that fails any validation step. On the mmap path the
// file's payload backs the arena's chunk table directly; the mapping
// stays alive until Close.
func (s *Store) Load(key string, src trace.Generator) *trace.Arena {
	f, err := os.Open(s.path(key))
	if err != nil {
		s.misses.Add(1)
		return nil
	}
	st, err := f.Stat()
	if err != nil || st.Size() < headerLen || st.Size() > 1<<46 {
		f.Close()
		s.corrupt.Add(1)
		return nil
	}
	size := int(st.Size())

	var data []byte
	var unmap func()
	if hostLittleEndian {
		data, unmap, _ = mmapFile(f, size, mapSpan(size, payloadOff(len(key))))
	}
	if data == nil {
		// Portable fallback (non-unix build, big-endian host, or a
		// failed map): read the file onto the heap. The payload is
		// copy-decoded below instead of aliased.
		data = make([]byte, size)
		if _, err := f.ReadAt(data, 0); err != nil {
			f.Close()
			s.corrupt.Add(1)
			return nil
		}
	}
	f.Close() // the mapping, if any, survives the descriptor

	reject := func() *trace.Arena {
		if unmap != nil {
			unmap()
		}
		s.corrupt.Add(1)
		return nil
	}

	// The word count is bounded by the file size before it is scaled, so
	// a crafted count cannot wrap the multiply back to the true size.
	hdr, ok := parseHeader(data, key)
	if !ok || hdr.words > uint64(size) || size != payloadOff(len(key))+4*int(hdr.words) {
		return reject()
	}
	var d digest
	d.bytes(data[payloadOff(len(key)):size])
	if d.sum() != hdr.payloadSum {
		return reject()
	}
	words := payloadWords(data, payloadOff(len(key)), hdr.words, unmap != nil)
	refs, lastAddr, ok := trace.WalkPacked(words)
	if !ok || refs == 0 || refs != hdr.refs || lastAddr != hdr.lastAddr {
		return reject()
	}

	s.track(unmap)
	s.loads.Add(1)
	return trace.AdoptFrozen(src, words, refs, lastAddr)
}

// mapSpan returns how many bytes to map for a file of size bytes whose
// payload starts at off: the payload rounded up to a whole arena chunk (see
// the package comment), never less than the file.
func mapSpan(size, off int) int {
	if size <= off {
		return size
	}
	words := (uint64(size-off)/4 + trace.ChunkWords - 1) &^ (trace.ChunkWords - 1)
	return max(size, off+4*int(words))
}

// header is the parsed, not-yet-cross-checked file header.
type header struct {
	words, refs, lastAddr, payloadSum uint64
}

// parseHeader validates everything the header alone can prove: magic,
// codec version, key identity, and the header's own checksum. The word
// count is validated against the file size by the caller, the reference
// count and final address against the payload by WalkPacked.
func parseHeader(data []byte, key string) (header, bool) {
	if len(data) < headerLen || string(data[:8]) != magic {
		return header{}, false
	}
	if binary.LittleEndian.Uint32(data[offVersion:]) != trace.PackCodecVersion {
		return header{}, false
	}
	keyLen := int(binary.LittleEndian.Uint32(data[offKeyLen:]))
	if keyLen != len(key) || keyLen > maxKeyLen || len(data) < payloadOff(keyLen) {
		return header{}, false
	}
	if string(data[headerLen:headerLen+keyLen]) != key {
		return header{}, false
	}
	if headerChecksum(data, keyLen) != binary.LittleEndian.Uint64(data[offHeaderSum:]) {
		return header{}, false
	}
	return header{
		words:      binary.LittleEndian.Uint64(data[offWords:]),
		refs:       binary.LittleEndian.Uint64(data[offRefs:]),
		lastAddr:   binary.LittleEndian.Uint64(data[offLastAddr:]),
		payloadSum: binary.LittleEndian.Uint64(data[offPayloadSum:]),
	}, true
}

// payloadWords exposes the packed payload as a word slice: aliased in
// place when the bytes are a little-endian mapping (alias=true), decoded
// onto the heap otherwise. An aliased slice's capacity runs to the end of
// the mapping (data's capacity), which mapSpan extends to the payload's
// last whole arena chunk, so AdoptFrozen aliases the tail chunk too; a
// decoded slice has exact length, so AdoptFrozen copies its tail. The
// payload offset is always 8-aligned (the header is 56 bytes and the key
// is padded), and mapped memory is page-aligned, so the aliasing cast is
// well-formed.
func payloadWords(data []byte, off int, nwords uint64, alias bool) []uint32 {
	if nwords == 0 {
		return nil
	}
	if alias && hostLittleEndian {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&data[off])), (cap(data)-off)/4)[:nwords]
	}
	ws := make([]uint32, nwords)
	for i := range ws {
		ws[i] = binary.LittleEndian.Uint32(data[off+4*i:])
	}
	return ws
}

// Save publishes the arena's current frozen prefix under key: stream to a
// unique temp file in the store directory, fsync, rename over the final
// name. Concurrent savers of the same key each publish a complete file
// and the last rename wins; concurrent readers see old-complete or
// new-complete, never partial. An empty arena is skipped (nothing to
// replay; a zero-length payload would just be rejected on load).
func (s *Store) Save(key string, a *trace.Arena) error {
	if len(key) == 0 || len(key) > maxKeyLen {
		return fmt.Errorf("store: key length %d out of range", len(key))
	}
	if a.Refs() == 0 {
		return nil
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return fmt.Errorf("store: creating root: %w", err)
	}
	f, err := os.CreateTemp(s.dir, ".arena-*.tmp")
	if err != nil {
		return fmt.Errorf("store: creating temp file: %w", err)
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}

	off := payloadOff(len(key))
	if _, err := f.Write(make([]byte, off)); err != nil {
		return fail(fmt.Errorf("store: reserving header: %w", err))
	}

	// The payload digest runs over the file's bytes as they are written.
	// Snapshot hands over whole chunks (an even word count) before the
	// tail, so only the last span can end in a partial 8-byte word, and
	// the digest matches Load's over the payload in one piece.
	var d digest
	var snap trace.ArenaSnapshot
	if hostLittleEndian {
		// The in-memory words are the file's bytes: digest each span and
		// write it as it is, one write per chunk.
		snap, err = a.Snapshot(func(span []uint32) error {
			b := unsafe.Slice((*byte)(unsafe.Pointer(&span[0])), 4*len(span))
			d.bytes(b)
			_, err := f.Write(b)
			return err
		})
	} else {
		bw := bufio.NewWriterSize(f, 1<<16)
		scratch := make([]byte, 1<<15)
		snap, err = a.Snapshot(func(span []uint32) error {
			for len(span) > 0 {
				n := min(len(span), len(scratch)/4)
				for i := 0; i < n; i++ {
					binary.LittleEndian.PutUint32(scratch[4*i:], span[i])
				}
				d.bytes(scratch[:4*n])
				if _, err := bw.Write(scratch[:4*n]); err != nil {
					return err
				}
				span = span[n:]
			}
			return nil
		})
		if err == nil {
			err = bw.Flush()
		}
	}
	if err != nil {
		return fail(fmt.Errorf("store: writing payload: %w", err))
	}

	hdr := make([]byte, off)
	copy(hdr, magic)
	binary.LittleEndian.PutUint32(hdr[offVersion:], trace.PackCodecVersion)
	binary.LittleEndian.PutUint32(hdr[offKeyLen:], uint32(len(key)))
	binary.LittleEndian.PutUint64(hdr[offWords:], snap.Words)
	binary.LittleEndian.PutUint64(hdr[offRefs:], snap.Refs)
	binary.LittleEndian.PutUint64(hdr[offLastAddr:], snap.LastAddr)
	binary.LittleEndian.PutUint64(hdr[offPayloadSum:], d.sum())
	copy(hdr[headerLen:], key)
	binary.LittleEndian.PutUint64(hdr[offHeaderSum:], headerChecksum(hdr, len(key)))
	if _, err := f.WriteAt(hdr, 0); err != nil {
		return fail(fmt.Errorf("store: writing header: %w", err))
	}
	if err := f.Sync(); err != nil {
		return fail(fmt.Errorf("store: syncing: %w", err))
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: closing temp file: %w", err)
	}
	if err := os.Rename(tmp, s.path(key)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: publishing: %w", err)
	}
	s.saves.Add(1)
	return nil
}

// path maps a cache key to its chunk-file path: a sanitised readable
// prefix for humans plus a 128-bit key hash for uniqueness. The key is
// additionally stored in the header and verified on load, so even a hash
// collision degrades to a miss, never a wrong stream.
func (s *Store) path(key string) string {
	var name []byte
	for i := 0; i < len(key) && i < fileNameMaxKey; i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c >= '0' && c <= '9', c == '.', c == '-', c == '_':
			name = append(name, c)
		default:
			name = append(name, '-')
		}
	}
	var d1, d2 digest
	d1.bytes([]byte(key))
	d2.word(^uint64(len(key)))
	d2.bytes([]byte(key))
	name = append(name, '-')
	name = appendHex(name, d1.sum())
	name = appendHex(name, d2.sum())
	return filepath.Join(s.dir, string(name)+".arena")
}

func appendHex(b []byte, v uint64) []byte {
	const hexDigits = "0123456789abcdef"
	for i := 60; i >= 0; i -= 4 {
		b = append(b, hexDigits[(v>>i)&0xf])
	}
	return b
}

// headerChecksum digests the fixed header fields before the checksum slot
// plus the key bytes; data must hold at least payloadOff(keyLen) bytes.
func headerChecksum(data []byte, keyLen int) uint64 {
	var d digest
	d.bytes(data[:offHeaderSum])
	d.bytes(data[headerLen : headerLen+keyLen])
	return d.sum()
}

// hostLittleEndian reports whether uint64s are stored little-endian in
// memory, i.e. whether a mapped payload can be aliased without decoding.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()
