//go:build unix

package store

import (
	"os"
	"syscall"
)

// mmapFile maps the size bytes of f read-only and shared, reserving
// mapped address space up to span bytes (span >= size). It returns the
// file's bytes with the mapping's full span as their capacity: pages
// entirely past the end of the file fault if read, so callers must not read
// beyond len. The mapping outlives the descriptor; release it with the
// returned unmap function once nothing aliases the bytes. On failure the
// caller falls back to reading the file onto the heap.
func mmapFile(f *os.File, size, span int) ([]byte, func(), error) {
	data, err := syscall.Mmap(int(f.Fd()), 0, span, syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, err
	}
	return data[:size], func() { syscall.Munmap(data) }, nil
}
