// Package refmodel is the straightforward reference implementation of the
// set-associative cache model: per-set []cachesim.Line slices probed with a
// linear scan and true-LRU recency kept as an explicit []int stack that is
// spliced on every touch.
//
// It is the original internal/cachesim implementation, frozen verbatim when
// the hot kernel was rewritten around packed words. It is *the oracle*: the
// differential fuzzer and the property tests in internal/cachesim drive a
// refmodel.Cache and a cachesim.Cache with identical operation sequences
// and require identical evictions, recency order and statistics. Keep this
// package dumb and obvious — its only job is to be easy to believe.
//
// The exported types (Config, Line, InsertPos, SetStats, ...) are shared
// with package cachesim so sequences and results compare directly.
package refmodel

import (
	"fmt"

	"ascc/internal/cachesim"
)

// set is one associativity set with a true-LRU recency stack. stack[0] is
// the MRU way index; stack[len-1] the LRU.
type set struct {
	lines []cachesim.Line
	stack []int
}

// Cache is the reference set-associative cache.
type Cache struct {
	cfg      cachesim.Config
	sets     []set
	setMask  uint64
	ways     int // enabled ways
	stats    []cachesim.SetStats
	hits     uint64
	misses   uint64
	accesses uint64
}

// New builds a reference cache from cfg. It panics on invalid geometry,
// exactly like cachesim.New.
func New(cfg cachesim.Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	numSets := lines / cfg.Ways
	ways := cfg.Ways
	enabled := ways
	c := &Cache{
		cfg:     cfg,
		sets:    make([]set, numSets),
		setMask: uint64(numSets - 1),
		ways:    enabled,
		stats:   make([]cachesim.SetStats, numSets),
	}
	for i := range c.sets {
		c.sets[i].lines = make([]cachesim.Line, ways)
		c.sets[i].stack = make([]int, enabled)
		for w := 0; w < enabled; w++ {
			c.sets[i].stack[w] = w
		}
	}
	return c
}

// Config returns the cache's geometry.
func (c *Cache) Config() cachesim.Config { return c.cfg }

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return len(c.sets) }

// Ways returns the number of enabled ways per set.
func (c *Cache) Ways() int { return c.ways }

// SetIndex maps a block address to its set.
func (c *Cache) SetIndex(block uint64) int { return int(block & c.setMask) }

// Lookup finds block without changing any state.
func (c *Cache) Lookup(block uint64) (way int, ok bool) {
	s := &c.sets[c.SetIndex(block)]
	for w := 0; w < c.ways; w++ {
		if s.lines[w].State != cachesim.Invalid && s.lines[w].Tag == block {
			return w, true
		}
	}
	return -1, false
}

// Line returns a pointer to the line at (setIdx, way).
func (c *Cache) Line(setIdx, way int) *cachesim.Line { return &c.sets[setIdx].lines[way] }

// Access performs a demand lookup with LRU promotion on hit.
func (c *Cache) Access(block uint64) (way int, hit bool) {
	c.accesses++
	si := c.SetIndex(block)
	w, ok := c.Lookup(block)
	if ok {
		c.hits++
		c.stats[si].Hits++
		c.touch(si, w)
		return w, true
	}
	c.misses++
	c.stats[si].Misses++
	return -1, false
}

// Touch promotes the line at (setIdx, way) to MRU without counting an
// access.
func (c *Cache) Touch(setIdx, way int) { c.touch(setIdx, way) }

func (c *Cache) touch(setIdx, way int) {
	s := &c.sets[setIdx]
	for i, w := range s.stack {
		if w == way {
			copy(s.stack[1:i+1], s.stack[:i])
			s.stack[0] = way
			return
		}
	}
	panic(fmt.Sprintf("refmodel: way %d not in recency stack of set %d", way, setIdx))
}

// Victim returns the way that would be replaced next in block's set.
func (c *Cache) Victim(block uint64) int {
	return c.VictimInSet(c.SetIndex(block))
}

// VictimInSet is Victim for an explicit set index.
func (c *Cache) VictimInSet(setIdx int) int {
	s := &c.sets[setIdx]
	for w := 0; w < c.ways; w++ {
		if s.lines[w].State == cachesim.Invalid {
			return w
		}
	}
	return s.stack[len(s.stack)-1]
}

// Insert places a new line for block at the given recency position,
// evicting the victim way's occupant.
func (c *Cache) Insert(block uint64, pos cachesim.InsertPos, proto cachesim.Line) (evicted cachesim.Line) {
	si := c.SetIndex(block)
	w := c.VictimInSet(si)
	s := &c.sets[si]
	evicted = s.lines[w]
	proto.Tag = block
	s.lines[w] = proto
	c.place(si, w, pos)
	return evicted
}

// place moves way w to the requested recency position.
func (c *Cache) place(setIdx, w int, pos cachesim.InsertPos) {
	s := &c.sets[setIdx]
	idx := -1
	for i, x := range s.stack {
		if x == w {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic(fmt.Sprintf("refmodel: way %d missing from stack of set %d", w, setIdx))
	}
	copy(s.stack[idx:], s.stack[idx+1:])
	s.stack = s.stack[:len(s.stack)-1]
	target := 0
	switch pos {
	case cachesim.InsertMRU:
		target = 0
	case cachesim.InsertLRU:
		target = len(s.stack)
	case cachesim.InsertLRU1:
		target = len(s.stack) - 1
		if target < 0 {
			target = 0
		}
	default:
		panic(fmt.Sprintf("refmodel: unknown insert position %v", pos))
	}
	s.stack = append(s.stack, 0)
	copy(s.stack[target+1:], s.stack[target:])
	s.stack[target] = w
}

// VictimAmong returns the victim way restricted to allowed ways, -1 if none.
func (c *Cache) VictimAmong(setIdx int, allowed func(way int) bool) int {
	s := &c.sets[setIdx]
	for w := 0; w < c.ways; w++ {
		if allowed(w) && s.lines[w].State == cachesim.Invalid {
			return w
		}
	}
	for i := len(s.stack) - 1; i >= 0; i-- {
		if allowed(s.stack[i]) {
			return s.stack[i]
		}
	}
	return -1
}

// VictimDead picks a victim among the set's dead lines, clearing all reuse
// bits (and reporting no victim) when every valid line has been reused.
func (c *Cache) VictimDead(setIdx int) (way int, ok bool) {
	s := &c.sets[setIdx]
	for w := 0; w < c.ways; w++ {
		if s.lines[w].State == cachesim.Invalid {
			return w, true
		}
	}
	for i := len(s.stack) - 1; i >= 0; i-- {
		if w := s.stack[i]; !s.lines[w].Reused {
			return w, true
		}
	}
	for w := 0; w < c.ways; w++ {
		s.lines[w].Reused = false
	}
	return -1, false
}

// InsertWay places a new line for block into an explicit way.
func (c *Cache) InsertWay(block uint64, way int, pos cachesim.InsertPos, proto cachesim.Line) (evicted cachesim.Line) {
	si := c.SetIndex(block)
	s := &c.sets[si]
	evicted = s.lines[way]
	proto.Tag = block
	s.lines[way] = proto
	c.place(si, way, pos)
	return evicted
}

// Invalidate removes block from the cache if present.
func (c *Cache) Invalidate(block uint64) (cachesim.Line, bool) {
	w, ok := c.Lookup(block)
	if !ok {
		return cachesim.Line{}, false
	}
	si := c.SetIndex(block)
	old := c.sets[si].lines[w]
	c.sets[si].lines[w] = cachesim.Line{}
	c.place(si, w, cachesim.InsertLRU)
	return old, true
}

// RecencyStack returns a copy of the set's recency stack, MRU first.
func (c *Cache) RecencyStack(setIdx int) []int {
	return c.AppendRecencyStack(setIdx, nil)
}

// AppendRecencyStack appends the set's recency order (MRU first) to buf and
// returns the extended slice, mirroring cachesim.Cache.AppendRecencyStack.
func (c *Cache) AppendRecencyStack(setIdx int, buf []int) []int {
	return append(buf, c.sets[setIdx].stack...)
}

// SetStatsFor returns the accumulated stats for one set.
func (c *Cache) SetStatsFor(setIdx int) cachesim.SetStats { return c.stats[setIdx] }

// ResetSetStats zeroes all per-set statistics.
func (c *Cache) ResetSetStats() {
	for i := range c.stats {
		c.stats[i] = cachesim.SetStats{}
	}
}

// Totals returns lifetime accesses, hits and misses.
func (c *Cache) Totals() (accesses, hits, misses uint64) {
	return c.accesses, c.hits, c.misses
}

// ResetTotals zeroes the lifetime counters and per-set stats.
func (c *Cache) ResetTotals() {
	c.accesses, c.hits, c.misses = 0, 0, 0
	c.ResetSetStats()
}

// ValidLines counts valid lines in the whole cache.
func (c *Cache) ValidLines() int {
	n := 0
	for si := range c.sets {
		for w := 0; w < c.ways; w++ {
			if c.sets[si].lines[w].Valid() {
				n++
			}
		}
	}
	return n
}

// ForEachLine calls fn for every valid line (set-major, then way).
func (c *Cache) ForEachLine(fn func(setIdx, way int, l *cachesim.Line)) {
	for si := range c.sets {
		for w := 0; w < c.ways; w++ {
			if c.sets[si].lines[w].Valid() {
				fn(si, w, &c.sets[si].lines[w])
			}
		}
	}
}
