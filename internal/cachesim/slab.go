// Recycled cache storage. A full experiment suite builds hundreds of
// systems of a handful of geometries, each with its own line slabs, set
// metadata and coherence-directory table; allocating those afresh per
// simulation made them most of the bytes the process allocated and the
// main cause of its GC cycles. New and newDirectory instead take cleared
// slabs of the exact length from per-length free lists, and Release
// (Cache, CacheGroup) gives them back once a simulation is finished with
// them.
package cachesim

import (
	"runtime"
	"sync"
)

// slabPool recycles slices of one element type, one free list per length,
// so a construction gets back a slab exactly as long as it asks for. The
// lists are process-wide, not per-P as a sync.Pool's are, so a build takes
// back every slab released before it, whichever goroutine or P released
// it. Like a sync.Pool's contents they do not outlive a garbage
// collection: the first collection after a put empties every list (see
// armDrop), so idle slabs hold memory only until the heap next grows.
type slabPool[T any] struct {
	mu   sync.Mutex
	free map[int][][]T
}

var (
	linePool = &slabPool[Line]{free: map[int][][]Line{}}
	metaPool = &slabPool[setMeta]{free: map[int][][]setMeta{}}
	dirPool  = &slabPool[dirEntry]{free: map[int][][]dirEntry{}}
)

// get returns a zeroed slab of n elements: a released one when the list
// for n holds one, a fresh allocation otherwise.
func (p *slabPool[T]) get(n int) []T {
	p.mu.Lock()
	l := p.free[n]
	if k := len(l) - 1; k >= 0 {
		s := l[k]
		l[k] = nil
		p.free[n] = l[:k]
		p.mu.Unlock()
		clear(s)
		return s
	}
	p.mu.Unlock()
	return make([]T, n)
}

// put hands s back for a later get of the same length. The caller must
// hold no other reference to s.
func (p *slabPool[T]) put(s []T) {
	if len(s) == 0 {
		return
	}
	p.mu.Lock()
	p.free[len(s)] = append(p.free[len(s)], s)
	p.mu.Unlock()
	armDrop()
}

// drop empties every free list.
func (p *slabPool[T]) drop() {
	p.mu.Lock()
	clear(p.free)
	p.mu.Unlock()
}

// dropSentinel is an object nothing references once armDrop returns, so
// the next garbage collection finds it unreachable and queues its
// finalizer. It holds a pointer so that it is never placed in the tiny
// allocator's shared blocks, whose finalizers may not run.
type dropSentinel struct{ _ *byte }

var dropState struct {
	mu    sync.Mutex
	armed bool
}

// armDrop makes sure the next garbage collection empties the free lists:
// it allocates a sentinel whose finalizer does that, unless one is already
// waiting. The finalizer does not re-arm; the next put does.
func armDrop() {
	dropState.mu.Lock()
	defer dropState.mu.Unlock()
	if dropState.armed {
		return
	}
	dropState.armed = true
	runtime.SetFinalizer(new(dropSentinel), func(*dropSentinel) {
		dropState.mu.Lock()
		dropState.armed = false
		dropState.mu.Unlock()
		linePool.drop()
		metaPool.drop()
		dirPool.drop()
	})
}
