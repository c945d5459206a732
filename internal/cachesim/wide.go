package cachesim

// wideState is the bookkeeping for sets wider than packedMaxWays — in
// practice the fully associative study caches, whose thousands of ways made
// the old linear-scan fallback dominate Figure 1's wall clock. Every hot
// operation is O(1) here: lookups go through a tag index over the valid
// lines, recency is an intrusive doubly-linked list per set (head = MRU,
// tail = LRU), and victim selection combines the list tail with a
// monotonic lowest-invalid-way hint. The structures are pure accelerators:
// observable state (tags, lines, recency order, statistics) is exactly what
// the old explicit stacks produced, which the refmodel differential wall
// pins.
type wideState struct {
	// next/prev link the ways of each set in recency order (set*ways+way
	// indexed, -1 terminated); every way is always linked, valid or not,
	// like the old explicit stacks.
	next, prev []int32
	head, tail []int32 // per set: MRU way, LRU way

	// idx maps each valid tag to the way holding it. A tag lives in exactly
	// one set, so the way index alone identifies the line. When duplicate
	// tags exist in one set (reachable only through fuzzer-driven
	// InsertWay sequences, flagged by dups) the entry is the lowest valid
	// way, matching the old scan's first-match order, and maintenance
	// falls back to set rescans.
	idx  map[uint64]int32
	dups bool

	// nValid counts valid lines per set; free is a per-set lower bound on
	// the lowest invalid way (no invalid way exists strictly below it), so
	// the victim scan for holes is amortised O(1) instead of O(ways).
	nValid, free []int32
}

func newWideState(numSets, ways, totalLines int) *wideState {
	ws := &wideState{
		next:   make([]int32, numSets*ways),
		prev:   make([]int32, numSets*ways),
		head:   make([]int32, numSets),
		tail:   make([]int32, numSets),
		idx:    make(map[uint64]int32, totalLines),
		nValid: make([]int32, numSets),
		free:   make([]int32, numSets),
	}
	for si := 0; si < numSets; si++ {
		base := si * ways
		for w := 0; w < ways; w++ {
			ws.next[base+w] = int32(w + 1)
			ws.prev[base+w] = int32(w - 1)
		}
		ws.next[base+ways-1] = -1
		ws.head[si] = 0
		ws.tail[si] = int32(ways - 1)
	}
	return ws
}

// unlink removes way w from set si's recency list.
func (ws *wideState) unlink(si, ways, w int) {
	base := si * ways
	n, p := ws.next[base+w], ws.prev[base+w]
	if p >= 0 {
		ws.next[base+int(p)] = n
	} else {
		ws.head[si] = n
	}
	if n >= 0 {
		ws.prev[base+int(n)] = p
	} else {
		ws.tail[si] = p
	}
}

// pushFront makes way w set si's MRU.
func (ws *wideState) pushFront(si, ways, w int) {
	base := si * ways
	h := ws.head[si]
	ws.next[base+w], ws.prev[base+w] = h, -1
	if h >= 0 {
		ws.prev[base+int(h)] = int32(w)
	} else {
		ws.tail[si] = int32(w)
	}
	ws.head[si] = int32(w)
}

// pushBack makes way w set si's LRU.
func (ws *wideState) pushBack(si, ways, w int) {
	base := si * ways
	t := ws.tail[si]
	ws.prev[base+w], ws.next[base+w] = t, -1
	if t >= 0 {
		ws.next[base+int(t)] = int32(w)
	} else {
		ws.head[si] = int32(w)
	}
	ws.tail[si] = int32(w)
}

// pushBeforeTail places way w at the LRU-1 rank (w is not in the list).
func (ws *wideState) pushBeforeTail(si, ways, w int) {
	t := ws.tail[si]
	if t < 0 {
		ws.pushFront(si, ways, w)
		return
	}
	base := si * ways
	p := ws.prev[base+int(t)]
	ws.next[base+w], ws.prev[base+w] = t, p
	ws.prev[base+int(t)] = int32(w)
	if p >= 0 {
		ws.next[base+int(p)] = int32(w)
	} else {
		ws.head[si] = int32(w)
	}
}

// wideTouch promotes way w of set si to MRU.
func (c *Cache) wideTouch(si, w int) {
	ws := c.wide
	if int(ws.head[si]) == w {
		return
	}
	ws.unlink(si, c.ways, w)
	ws.pushFront(si, c.ways, w)
}

// wideReindex recomputes the tag index entry for tag in set si — the lowest
// valid way holding it, or no entry. Only reached while duplicate tags
// exist (ws.dups).
func (c *Cache) wideReindex(si int, tag uint64) {
	base := si * c.ways
	for w := 0; w < c.ways; w++ {
		if l := &c.lines[base+w]; l.State != Invalid && l.Tag == tag {
			c.wide.idx[tag] = int32(w)
			return
		}
	}
	delete(c.wide.idx, tag)
}

// wideDropTag removes way w's claim on tag from the index (the line at w
// was just overwritten or invalidated).
func (c *Cache) wideDropTag(si, w int, tag uint64) {
	ws := c.wide
	if e, ok := ws.idx[tag]; ok && int(e) == w {
		if ws.dups {
			c.wideReindex(si, tag)
		} else {
			delete(ws.idx, tag)
		}
	}
}

// wideSetLine records the transition of set si's way w from line `old` to a
// line holding block with validity newValid, keeping the tag index and the
// valid/free accounting exact.
func (c *Cache) wideSetLine(si, w int, old Line, block uint64, newValid bool) {
	ws := c.wide
	if old.Valid() {
		ws.nValid[si]--
		c.wideDropTag(si, w, old.Tag)
	}
	if newValid {
		ws.nValid[si]++
		if e, ok := ws.idx[block]; ok && int(e) != w {
			// Another valid way already holds this tag (fuzzer-driven
			// sequences): keep the lowest, and flag rescan maintenance.
			ws.dups = true
			if w < int(e) {
				ws.idx[block] = int32(w)
			}
		} else {
			ws.idx[block] = int32(w)
		}
	} else if int32(w) < ws.free[si] {
		ws.free[si] = int32(w)
	}
}

// wideFirstInvalid returns the lowest invalid way of set si, or -1 when the
// set is full, advancing the free hint past the scanned prefix.
func (c *Cache) wideFirstInvalid(si int) int {
	ws := c.wide
	if int(ws.nValid[si]) == c.ways {
		return -1
	}
	base := si * c.ways
	for w := int(ws.free[si]); w < c.ways; w++ {
		if c.lines[base+w].State == Invalid {
			ws.free[si] = int32(w)
			return w
		}
	}
	// nValid says a hole exists, so the hint must have been ahead of it —
	// impossible by construction; fail loudly rather than corrupt state.
	panic("cachesim: wide valid-count/free-hint accounting diverged")
}
