package harness

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"ascc/internal/cmp"
	"ascc/internal/trace"
	"ascc/internal/trace/store"
	"ascc/internal/workload"
)

// sampledStoreConfig is storeConfig sampling one L2 set in eight.
func sampledStoreConfig(t *testing.T) Config {
	t.Helper()
	cfg := storeConfig(t)
	cfg.SampleDen = 8
	return cfg
}

// sampledRuns executes the sampled run shapes the store tests compare: a
// private-L2 mix under two policies and the same mix on the shared LLC.
// All three replay the mix's two sub-arenas.
func sampledRuns(t *testing.T, r *Runner) []cmp.Results {
	t.Helper()
	mix := []int{445, 456}
	var out []cmp.Results
	for _, id := range []PolicyID{PBaseline, PAVGCC} {
		res, err := r.RunMix(mix, id)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res)
	}
	res, err := r.Run(Spec{Kind: KindShared, Mix: mix})
	if err != nil {
		t.Fatal(err)
	}
	return append(out, res)
}

// noStoreRuns is sampledRuns on a runner of cfg with no persistent store:
// the reference the store-backed runs must reproduce bit for bit.
func noStoreRuns(t *testing.T, cfg Config) []cmp.Results {
	t.Helper()
	cfg.ArenaStoreDir = ""
	return sampledRuns(t, NewRunner(cfg))
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

// TestSampledStoreSkipsParents pins the lazy parent resolution: once a
// store holds a mix's sampled sub-arenas, a fresh runner's sampled runs
// load exactly those files — no parent arena is looked up, mapped or
// validated, and none enters the cache — and reproduce the no-store
// results bit for bit.
func TestSampledStoreSkipsParents(t *testing.T) {
	cfg := sampledStoreConfig(t)

	full := cfg
	full.SampleDen = 0
	warmFull := NewRunner(full)
	if _, err := warmFull.RunMix([]int{445, 456}, PBaseline); err != nil {
		t.Fatal(err)
	}
	if err := warmFull.FlushArenas(); err != nil {
		t.Fatal(err)
	}
	// A store of full-fidelity arenas only (what -prewarm writes): the
	// sub-arenas miss and are derived from the stored parents on first use.
	warmSampled := NewRunner(cfg)
	sampledRuns(t, warmSampled)
	if st := storeStats(t, warmSampled); st.Loads != 2 || st.Misses != 2 || st.Corrupt != 0 {
		t.Fatalf("sampled run over a parents-only store: stats %+v, want 2 parent loads and 2 sub-arena misses", st)
	}
	if err := warmSampled.FlushArenas(); err != nil {
		t.Fatal(err)
	}

	r := NewRunner(cfg)
	got := sampledRuns(t, r)
	const subArenas = 2
	if st := storeStats(t, r); st.Loads != subArenas || st.Misses != 0 || st.Corrupt != 0 {
		t.Fatalf("warm sampled stats %+v, want exactly %d loads (the sub-arenas)", st, subArenas)
	}
	if n := r.arenas.Len(); n != subArenas {
		t.Fatalf("%d arenas cached, want the %d sub-arenas only", n, subArenas)
	}
	if err := r.FlushArenas(); err != nil {
		t.Fatal(err)
	}
	if st := storeStats(t, r); st.Saves != 0 {
		t.Fatalf("flush after a warm sampled run saved %d files", st.Saves)
	}
	if want := noStoreRuns(t, cfg); !reflect.DeepEqual(got, want) {
		t.Fatal("warm-store sampled runs diverged from the no-store runs")
	}
}

// storeShortArenas writes truncated arenas for every stream of mixes into
// cfg's store — each parent holding its first parentRefs references and
// each sampled sub-arena its first subRefs — so runs of cfg outgrow both
// stored prefixes and must extend them.
func storeShortArenas(t *testing.T, cfg Config, mixes [][]int, parentRefs, subRefs uint64) {
	t.Helper()
	r := NewRunner(cfg)
	st := store.New(cfg.ArenaStoreDir)
	for _, mix := range mixes {
		spec, err := cfg.Params(len(mix)).SampleSpec()
		if err != nil {
			t.Fatal(err)
		}
		gens, _, err := workload.BuildMix(mix, cfg.Seed, cfg.Scale)
		if err != nil {
			t.Fatal(err)
		}
		for i, g := range gens {
			key := r.arenaKey("mix", i, g.Name())
			parent := trace.NewArena(g)
			parent.Extend(parentRefs)
			if err := st.Save(key, parent); err != nil {
				t.Fatal(err)
			}
			sub := trace.NewArena(spec.View(parent.NewReplayer()))
			sub.Extend(subRefs)
			if err := st.Save(key+"?sample="+spec.String(), sub); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSampledStoreLazyExtension stores sub-arenas and parents shorter than
// a run needs: each sub-arena must resolve its parent from the store,
// fast-forward both streams past their adopted prefixes, and still
// reproduce the no-store results bit for bit.
func TestSampledStoreLazyExtension(t *testing.T) {
	cfg := sampledStoreConfig(t)
	storeShortArenas(t, cfg, [][]int{{445, 456}}, 4096, 512)

	r := NewRunner(cfg)
	var got []cmp.Results
	withWatchdog(t, 60*time.Second, func() { got = sampledRuns(t, r) })
	// Two sub-arenas plus the two parents they had to resolve.
	if st := storeStats(t, r); st.Loads != 4 || st.Misses != 0 || st.Corrupt != 0 {
		t.Fatalf("extension stats %+v, want 4 loads (sub-arenas and parents)", st)
	}
	if want := noStoreRuns(t, cfg); !reflect.DeepEqual(got, want) {
		t.Fatal("sampled runs extending short stored arenas diverged from the no-store runs")
	}
}

// TestSampledStoreEvictionStress races eviction write-behind against lazy
// parent resolution: a 1 MB cache (two chunks) on a 4-slot pool, sampled
// runs of several mixes over a store of too-short arenas, so nearly every
// Get evicts and writes a dirty arena behind while other runs are inside a
// sub-arena's Extend resolving and extending parents — including evicting
// the very sub-arena whose Extend called Get. The cache must never wait on
// an arena's mutex, so this completes; results stay bit-identical.
func TestSampledStoreEvictionStress(t *testing.T) {
	cfg := sampledStoreConfig(t)
	cfg.Parallel = 4
	cfg.TraceCacheMB = 1
	mixes := [][]int{{445, 456}, {433, 471}, {473, 482}, {429, 450}}
	storeShortArenas(t, cfg, mixes, 4096, 512)

	run := func(r *Runner) []cmp.Results {
		out := make([]cmp.Results, 2*len(mixes))
		err := ForEach(len(out), func(i int) error {
			var err error
			if i < len(mixes) {
				out[i], err = r.RunMix(mixes[i], PAVGCC)
			} else {
				out[i], err = r.Run(Spec{Kind: KindShared, Mix: mixes[i-len(mixes)]})
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	r := NewRunner(cfg)
	var got []cmp.Results
	withWatchdog(t, 60*time.Second, func() {
		got = run(r)
		if err := r.FlushArenas(); err != nil {
			t.Error(err)
		}
	})
	if st := storeStats(t, r); st.Saves == 0 || st.Corrupt != 0 {
		t.Fatalf("stress stats %+v, want write-behind saves and no corrupt loads", st)
	}
	noStore := cfg
	noStore.ArenaStoreDir = ""
	if want := run(NewRunner(noStore)); !reflect.DeepEqual(got, want) {
		t.Fatal("sampled runs under eviction pressure diverged from the no-store runs")
	}
}
