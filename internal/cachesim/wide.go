package cachesim

// wideState is the bookkeeping for caches wider than packedMaxWays. Config
// admits such a cache only as one fully associative set (the study caches
// whose thousands of ways made the old linear-scan fallback dominate
// Figure 1's wall clock), so every field describes that one set and every
// line index is a way index. Every hot operation is O(1) here: lookups go
// through a tag index over the valid lines, recency is an intrusive
// doubly-linked list (head = MRU, tail = LRU), and victim selection
// combines the list tail with a monotonic lowest-invalid-way hint. The
// structures are pure accelerators: observable state (tags, lines, recency
// order, statistics) is exactly what the old explicit stacks produced,
// which the refmodel differential wall pins.
type wideState struct {
	// next/prev link the ways in recency order (-1 terminated); every way
	// is always linked, valid or not, like the old explicit stacks.
	next, prev []int32
	head, tail int32 // MRU way, LRU way

	// idx maps each valid tag to the way holding it. When duplicate tags
	// exist (reachable only through fuzzer-driven InsertWay sequences,
	// flagged by dups) the entry is the lowest valid way, matching the old
	// scan's first-match order, and maintenance falls back to rescans.
	idx  map[uint64]int32
	dups bool

	// nValid counts valid lines; free is a lower bound on the lowest
	// invalid way (no invalid way exists strictly below it), so the victim
	// scan for holes is amortised O(1) instead of O(ways).
	nValid, free int32
}

func newWideState(ways int) *wideState {
	ws := &wideState{
		next: make([]int32, ways),
		prev: make([]int32, ways),
		tail: int32(ways - 1),
		idx:  make(map[uint64]int32, ways),
	}
	for w := 0; w < ways; w++ {
		ws.next[w] = int32(w + 1)
		ws.prev[w] = int32(w - 1)
	}
	ws.next[ways-1] = -1
	return ws
}

// unlink removes way w from the recency list.
func (ws *wideState) unlink(w int) {
	n, p := ws.next[w], ws.prev[w]
	if p >= 0 {
		ws.next[p] = n
	} else {
		ws.head = n
	}
	if n >= 0 {
		ws.prev[n] = p
	} else {
		ws.tail = p
	}
}

// pushFront makes way w the MRU.
func (ws *wideState) pushFront(w int) {
	h := ws.head
	ws.next[w], ws.prev[w] = h, -1
	if h >= 0 {
		ws.prev[h] = int32(w)
	} else {
		ws.tail = int32(w)
	}
	ws.head = int32(w)
}

// pushBack makes way w the LRU.
func (ws *wideState) pushBack(w int) {
	t := ws.tail
	ws.prev[w], ws.next[w] = t, -1
	if t >= 0 {
		ws.next[t] = int32(w)
	} else {
		ws.head = int32(w)
	}
	ws.tail = int32(w)
}

// pushBeforeTail places way w at the LRU-1 rank (w is not in the list).
func (ws *wideState) pushBeforeTail(w int) {
	t := ws.tail
	if t < 0 {
		ws.pushFront(w)
		return
	}
	p := ws.prev[t]
	ws.next[w], ws.prev[w] = t, p
	ws.prev[t] = int32(w)
	if p >= 0 {
		ws.next[p] = int32(w)
	} else {
		ws.head = int32(w)
	}
}

// wideTouch promotes way w to MRU.
func (c *Cache) wideTouch(w int) {
	ws := c.wide
	if int(ws.head) == w {
		return
	}
	ws.unlink(w)
	ws.pushFront(w)
}

// wideReindex recomputes the tag index entry for tag — the lowest valid way
// holding it, or no entry. Only reached while duplicate tags exist
// (ws.dups).
func (c *Cache) wideReindex(tag uint64) {
	for w := 0; w < c.ways; w++ {
		if l := &c.lines[w]; l.State != Invalid && l.Tag == tag {
			c.wide.idx[tag] = int32(w)
			return
		}
	}
	delete(c.wide.idx, tag)
}

// wideDropTag removes way w's claim on tag from the index (the line at w
// was just overwritten or invalidated).
func (c *Cache) wideDropTag(w int, tag uint64) {
	ws := c.wide
	if e, ok := ws.idx[tag]; ok && int(e) == w {
		if ws.dups {
			c.wideReindex(tag)
		} else {
			delete(ws.idx, tag)
		}
	}
}

// wideSetLine records the transition of way w from line `old` to a line
// holding block with validity newValid, keeping the tag index and the
// valid/free accounting exact.
func (c *Cache) wideSetLine(w int, old Line, block uint64, newValid bool) {
	ws := c.wide
	if old.Valid() {
		ws.nValid--
		c.wideDropTag(w, old.Tag)
	}
	if newValid {
		ws.nValid++
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
	} else if int32(w) < ws.free {
		ws.free = int32(w)
	}
}

// wideFirstInvalid returns the lowest invalid way, or -1 when the set is
// full, advancing the free hint past the scanned prefix.
func (c *Cache) wideFirstInvalid() int {
	ws := c.wide
	if int(ws.nValid) == c.ways {
		return -1
	}
	for w := int(ws.free); w < c.ways; w++ {
		if c.lines[w].State == Invalid {
			ws.free = int32(w)
			return w
		}
	}
	// nValid says a hole exists, so the hint must have been ahead of it —
	// impossible by construction; fail loudly rather than corrupt state.
	panic("cachesim: wide valid-count/free-hint accounting diverged")
}
