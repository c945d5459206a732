package store

import (
	"encoding/binary"
	"math/bits"
)

// digest is an xxhash-style streaming 64-bit checksum: per-word
// multiply-rotate-multiply mixing folded into a rolling state, with an
// avalanche finisher. It exists to detect file corruption — bit flips,
// truncation, torn writes — without pulling in a dependency; it is not a
// cryptographic hash and the store never treats it as one (the key is
// compared byte-for-byte on load regardless). The zero value is ready to
// use.
type digest struct {
	h       uint64
	started bool
}

const (
	prime1 uint64 = 0x9E3779B185EBCA87
	prime2 uint64 = 0xC2B2AE3D27D4EB4F
	prime3 uint64 = 0x165667B19E3779F9
)

func (d *digest) start() {
	if !d.started {
		d.h = prime1 ^ prime2
		d.started = true
	}
}

// word folds one value into the state.
func (d *digest) word(w uint64) {
	d.start()
	w *= prime2
	w = bits.RotateLeft64(w, 31)
	w *= prime1
	d.h = bits.RotateLeft64(d.h^w, 27)*prime1 + prime2
}

// bytes folds a byte span into the state, 8 bytes per word with a
// length-tagged final partial word so "abc" and "abc\x00" digest
// differently.
func (d *digest) bytes(b []byte) {
	d.start()
	h := d.h
	for ; len(b) >= 8; b = b[8:] {
		w := binary.LittleEndian.Uint64(b)
		w *= prime2
		w = bits.RotateLeft64(w, 31)
		w *= prime1
		h = bits.RotateLeft64(h^w, 27)*prime1 + prime2
	}
	d.h = h
	if len(b) > 0 {
		var tail [8]byte
		copy(tail[:], b)
		d.word(binary.LittleEndian.Uint64(tail[:]) | uint64(len(b))<<56)
	}
}

// sum finishes the digest with an avalanche pass; the state is not
// consumed, so more data may still be folded in afterwards.
func (d *digest) sum() uint64 {
	d.start()
	h := d.h
	h ^= h >> 33
	h *= prime2
	h ^= h >> 29
	h *= prime3
	h ^= h >> 32
	return h
}
