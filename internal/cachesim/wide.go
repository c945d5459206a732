package cachesim

import (
	"errors"
	"fmt"
)

// wideState is the bookkeeping of a cache wider than PackedMaxWays, which
// Config admits only as one fully associative set. The simulator builds one
// only as Figure 1's study cache, a single core under plain LRU, so it
// supports just what that run does: Lookup, Access, Victim and Insert at MRU
// of a valid line it does not hold. Everything else panics with errWideOp.
// With no invalidation the ways fill in index order, so way nValid is the
// next free way, and once the set is full the victim is the recency tail.
type wideState struct {
	next, prev []int32          // every way, valid or not, in recency order (-1 ends)
	head, tail int32            // MRU way, LRU way
	idx        map[uint64]int32 // each valid tag -> its way
	nValid     int32            // valid lines: exactly ways [0, nValid)
}

// errWideOp is the panic value of every operation a wide cache lacks.
var errWideOp = errors.New("cachesim: a fully associative cache wider than 16 ways supports only Lookup, Access, Victim and MRU Insert of a valid line")

func wideUnsupported(op string) { panic(fmt.Errorf("%s: %w", op, errWideOp)) }

func newWideState(ways int) *wideState {
	ws := &wideState{
		next: make([]int32, ways),
		prev: make([]int32, ways),
		tail: int32(ways - 1),
		idx:  make(map[uint64]int32, ways),
	}
	for w := range ws.next {
		ws.next[w], ws.prev[w] = int32(w+1), int32(w-1)
	}
	ws.next[ways-1] = -1
	return ws
}

// moveToFront makes way w the MRU (a way that is not the head has a prev).
func (ws *wideState) moveToFront(w int32) {
	if ws.head == w {
		return
	}
	p, n := ws.prev[w], ws.next[w]
	ws.next[p] = n
	if n >= 0 {
		ws.prev[n] = p
	} else {
		ws.tail = p
	}
	ws.next[w], ws.prev[w] = ws.head, -1
	ws.prev[ws.head] = w
	ws.head = w
}

// wideInsert is Insert on a wide cache.
func (c *Cache) wideInsert(block uint64, pos InsertPos, proto Line) (evicted Line) {
	if pos != InsertMRU || proto.State == Invalid {
		wideUnsupported(fmt.Sprintf("Insert at %v of a %v line", pos, proto.State))
	}
	ws, w := c.wide, c.VictimInSet(0)
	if evicted = c.lines[w]; evicted.Valid() {
		delete(ws.idx, evicted.Tag)
	} else {
		ws.nValid++
	}
	ws.idx[block] = int32(w)
	if len(ws.idx) != int(ws.nValid) { // block was resident at another way
		wideUnsupported("Insert of a resident block")
	}
	proto.Tag = block
	c.lines[w] = proto
	if c.dir != nil {
		c.dirReplace(evicted, block, true)
	}
	ws.moveToFront(int32(w))
	return evicted
}
