//go:build !unix

package store

import (
	"errors"
	"os"
)

// mmapFile is unavailable without unix mmap support; Load falls back to
// reading files onto the heap and copy-decoding the payload.
func mmapFile(_ *os.File, _, _ int) ([]byte, func(), error) {
	return nil, nil, errors.New("store: no mmap on this platform")
}
