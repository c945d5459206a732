package trace

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// memStore is an in-memory ArenaStore. A Load or Save of a key listed in
// gate blocks until that channel is closed, so tests can hold store I/O
// open while they probe the cache.
type memStore struct {
	mu    sync.Mutex
	files map[string]memFile
	gate  map[string]chan struct{}
	loads atomic.Int64
}

type memFile struct {
	words          []uint32
	refs, lastAddr uint64
}

func newMemStore() *memStore {
	return &memStore{files: map[string]memFile{}, gate: map[string]chan struct{}{}}
}

func (s *memStore) wait(key string) {
	s.mu.Lock()
	g := s.gate[key]
	s.mu.Unlock()
	if g != nil {
		<-g
	}
}

func (s *memStore) Load(key string, src Generator) *Arena {
	s.loads.Add(1)
	s.wait(key)
	s.mu.Lock()
	f, ok := s.files[key]
	s.mu.Unlock()
	if !ok {
		return nil
	}
	return AdoptFrozen(src, append([]uint32(nil), f.words...), f.refs, f.lastAddr)
}

func (s *memStore) Save(key string, a *Arena) error {
	s.wait(key)
	var words []uint32
	snap, err := a.Snapshot(func(span []uint32) error {
		words = append(words, span...)
		return nil
	})
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.files[key] = memFile{words, snap.Refs, snap.LastAddr}
	return nil
}

func (s *memStore) file(key string) (memFile, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.files[key]
	return f, ok
}

// withWatchdog runs f and, if it has not returned within limit, dumps
// every goroutine and panics — a lock-order deadlock then fails the test
// binary fast instead of hanging until the package's test timeout.
func withWatchdog(t *testing.T, limit time.Duration, f func()) {
	t.Helper()
	name := t.Name()
	timer := time.AfterFunc(limit, func() {
		buf := make([]byte, 1<<22)
		buf = buf[:runtime.Stack(buf, true)]
		fmt.Fprintf(os.Stderr, "%s: no progress within %v; goroutines:\n%s\n", name, limit, buf)
		panic(name + ": deadlock watchdog fired")
	})
	defer timer.Stop()
	f()
}

// returnsWhile reports whether f returns while the caller keeps some
// resource held (f is left running otherwise).
func returnsWhile(f func()) bool {
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
		return true
	case <-time.After(5 * time.Second):
		return false
	}
}

// TestArenaCacheStoreIOOutsideLock pins the cache's lock rule for store
// I/O: while one key's Load or Save is in flight, Gets of other keys
// complete; concurrent Gets of the loading key wait and adopt the single
// loaded arena.
func TestArenaCacheStoreIOOutsideLock(t *testing.T) {
	st := newMemStore()
	seed := NewArena(testComposite(1))
	seed.Extend(1000)
	if err := st.Save("slow", seed); err != nil {
		t.Fatal(err)
	}
	c := NewArenaCache(0)
	c.SetStore(st)

	release := make(chan struct{})
	st.gate["slow"] = release
	got := make([]*Arena, 2)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = c.Get("slow", testComposite(1))
		}()
	}
	for st.loads.Load() == 0 {
		runtime.Gosched()
	}
	if !returnsWhile(func() { c.Get("fast", testComposite(2)) }) {
		t.Fatal("Get of another key blocked behind an in-flight store load")
	}
	close(release)
	wg.Wait()
	if got[0] != got[1] || got[0].Refs() != seed.Refs() {
		t.Fatalf("concurrent Gets of a loading key returned %p and %p (%d refs), want one adopted arena of %d",
			got[0], got[1], got[0].Refs(), seed.Refs())
	}
	if n := st.loads.Load(); n != 2 { // "slow" once, "fast" once
		t.Fatalf("%d store loads, want 2", n)
	}

	// A flush blocked inside Save leaves Get free as well.
	got[0].Extend(5000)
	release = make(chan struct{})
	st.mu.Lock()
	st.gate["slow"] = release
	st.mu.Unlock()
	flushed := make(chan error)
	go func() { flushed <- c.FlushStore() }()
	if !returnsWhile(func() { c.Get("other", testComposite(3)) }) {
		t.Fatal("Get blocked behind an in-flight store save")
	}
	close(release)
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	if f, _ := st.file("slow"); f.refs < 5000 {
		t.Fatalf("flush stored %d refs of slow, want >= 5000", f.refs)
	}
}

// TestSnapshotDoesNotWaitForWriter: Snapshot streams the published prefix
// while the writer is stalled inside Extend, instead of waiting for it.
func TestSnapshotDoesNotWaitForWriter(t *testing.T) {
	stall := make(chan struct{})
	inside := make(chan struct{})
	src := &hookGen{Generator: testComposite(4), at: 3, hook: func() {
		close(inside)
		<-stall
	}}
	a := NewArena(src)
	go a.Extend(4096)
	<-inside
	var snap ArenaSnapshot
	if !returnsWhile(func() { snap, _ = a.Snapshot(func([]uint32) error { return nil }) }) {
		t.Fatal("Snapshot waited for the writer")
	}
	if snap.Refs != 2*arenaGenBatch || snap.Refs != a.Refs() {
		t.Fatalf("snapshot of %d refs, want the %d published before the stall", snap.Refs, 2*arenaGenBatch)
	}
	close(stall)
}

// hookGen runs hook once, on its at-th NextBatch call.
type hookGen struct {
	Generator
	calls, at int
	hook      func()
}

func (g *hookGen) NextBatch(buf []Ref) {
	if g.calls++; g.calls == g.at {
		g.hook()
	}
	g.Generator.NextBatch(buf)
}

// TestArenaCacheSourceReentry: an arena's source may call back into the
// cache from inside Extend — a sampled sub-arena resolves its parent that
// way — even when that Get evicts the very arena being extended, after it
// has grown (so it is written behind). The cache and the write-behind
// never take an arena mutex, so this neither self-deadlocks nor loses the
// stream.
func TestArenaCacheSourceReentry(t *testing.T) {
	st := newMemStore()
	c := NewArenaCache(1) // every other cached arena is over budget
	c.SetStore(st)
	src := &hookGen{Generator: testComposite(5), at: 3, hook: func() {
		c.Get("other", testComposite(6))
	}}
	a := c.Get("self", src)
	withWatchdog(t, time.Minute, func() { a.Extend(4096) })

	f, ok := st.file("self")
	if !ok || f.refs != 2*arenaGenBatch {
		t.Fatalf("write-behind stored %d refs (ok=%v), want the %d published before the reentry", f.refs, ok, 2*arenaGenBatch)
	}
	if c.Len() != 1 {
		t.Fatalf("%d cached arenas, want only the reentrant Get's", c.Len())
	}
	want := testComposite(5)
	rp := a.NewReplayer()
	for i := 0; i < 4096; i++ {
		if g, w := rp.Next(), want.Next(); g != w {
			t.Fatalf("ref %d after reentry: got %+v want %+v", i, g, w)
		}
	}
}
