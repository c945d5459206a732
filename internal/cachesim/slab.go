// Recycled cache storage. A full experiment suite builds hundreds of
// systems of a handful of geometries, each with its own line slabs, set
// metadata and coherence-directory table; allocating those afresh per
// simulation made them most of the bytes the process allocated and the
// main cause of its GC cycles. New and newDirectory instead take cleared
// slabs of the exact length from per-length pools, and Release (Cache,
// CacheGroup) gives them back once a simulation is finished with them.
package cachesim

import "sync"

// slabPool recycles slices of one element type, one sync.Pool per length,
// so a construction gets back a slab exactly as long as it asks for. A
// sync.Pool keeps the last slab put on each P where gets on other Ps cannot
// see it, so a build may allocate a slab afresh while a released one waits
// for the next build on its P or for the GC; recycling is a saving, not a
// guarantee, and nothing depends on it beyond speed and memory.
type slabPool[T any] struct {
	mu    sync.Mutex
	pools map[int]*sync.Pool
}

var (
	linePool = &slabPool[Line]{pools: map[int]*sync.Pool{}}
	metaPool = &slabPool[setMeta]{pools: map[int]*sync.Pool{}}
	dirPool  = &slabPool[dirEntry]{pools: map[int]*sync.Pool{}}
)

func (p *slabPool[T]) pool(n int) *sync.Pool {
	p.mu.Lock()
	defer p.mu.Unlock()
	sp := p.pools[n]
	if sp == nil {
		sp = new(sync.Pool)
		p.pools[n] = sp
	}
	return sp
}

// get returns a zeroed slab of n elements: a recycled one when the pool
// holds one, a fresh allocation otherwise.
func (p *slabPool[T]) get(n int) []T {
	if s, ok := p.pool(n).Get().(*[]T); ok {
		clear(*s)
		return *s
	}
	return make([]T, n)
}

// put hands s back for a later get of the same length. The caller must
// hold no other reference to s.
func (p *slabPool[T]) put(s []T) {
	if len(s) > 0 {
		p.pool(len(s)).Put(&s)
	}
}
