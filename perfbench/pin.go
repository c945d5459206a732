package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"ascc/internal/harness"
	"ascc/internal/trace"
)

// pinMain regenerates the pinned outputs for the selected seeds and
// workloads (-mode pin -seeds 1-10 -workloads paper4-full,...). Run it only
// after an intentional change of simulated results, and commit the new
// pins with that change.
func pinMain(o *options) error {
	seeds, err := parseSeeds(o.seeds)
	if err != nil {
		return err
	}
	wls, err := selectWorkloads(o.workloads)
	if err != nil {
		return err
	}
	workers := poolWidth()
	for _, seed := range seeds {
		pf := &pinFile{Seed: uint64(seed), Workloads: map[string]*workloadPin{}}
		if old, err := loadPins(o.root, uint64(seed)); err == nil {
			pf = old
		}
		for _, w := range wls {
			wp, err := pinWorkload(o.root, w, uint64(seed), workers)
			if err != nil {
				return fmt.Errorf("pinning %s at seed %d: %w", w.name, seed, err)
			}
			pf.Workloads[w.name] = wp
			fmt.Fprintf(os.Stderr, "perfbench: pinned %s at seed %d (%d simulations)\n", w.name, seed, len(wp.Records))
		}
		b, err := json.MarshalIndent(pf, "", " ")
		if err != nil {
			return err
		}
		path := pinPath(o.root, uint64(seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// pinWorkload computes one workload's pins at a seed: digests and stream
// demands from the instrumented constructor path, the accuracy of the
// 1/sampleDen estimate against full fidelity (for the sampled workload also
// the full-fidelity reference CPIs), the parent references filtering
// consumes, and a cross-check that the experiments path produces the same
// digests (and, at seed 1, the golden tables).
func pinWorkload(root string, w *benchWorkload, seed uint64, workers int) (*workloadPin, error) {
	run := func(den int) ([]sim, []simOutcome, error) {
		sims := w.sims(w.config(seed, den, workers))
		r := &runner{cache: trace.NewArenaCache(harness.DefaultTraceCacheMB << 20), workers: workers}
		outs, err := r.run(sims)
		return sims, outs, err
	}
	wp := &workloadPin{Records: map[string]string{}, CSV: map[string]string{}}
	sims, outs, err := run(w.timedDen())
	if err != nil {
		return nil, err
	}
	for n, rec := range records(sims, outs) {
		wp.Records[n] = rec.Digest
	}
	for i, s := range sims {
		if s.direct {
			if wp.Full == nil {
				wp.Full = map[string]string{}
			}
			wp.Full[s.name] = outs[i].full
		}
	}
	other := sampleDen
	if w.sampled {
		other = 0
	}
	osims, oouts, err := run(other)
	if err != nil {
		return nil, err
	}
	sampled, full := records(osims, oouts), records(sims, outs)
	if w.sampled {
		wp.Sampled, wp.Needs = streamNeeds(outs), map[string]uint64{}
		wp.Reference = cpiMap(sampled)
		sampled, full = full, sampled
	} else {
		wp.Needs = streamNeeds(outs)
	}
	if wp.Accuracy.CPIErrPct, wp.Accuracy.WSErrPP, err = accuracy(w, seed, sampled, cpiMap(full)); err != nil {
		return nil, err
	}

	streams, err := planStreams(w, seed, wp)
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	sem := make(chan struct{}, workers)
	err = harness.ForEach(len(streams), func(i int) error {
		s := streams[i]
		if s.sneed == 0 {
			return nil
		}
		sem <- struct{}{}
		defer func() { <-sem }()
		a := trace.NewArena(s.gen)
		trace.NewArena(s.spec.View(a.NewReplayer())).Extend(s.sneed)
		mu.Lock()
		if a.Refs() > wp.Needs[s.key] {
			wp.Needs[s.key] = a.Refs()
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}

	res, err := runPass(w, seed, w.timedDen(), workers, "")
	if err != nil {
		return nil, err
	}
	for n, want := range wp.Records {
		if got := res.Records[n].Digest; got != want {
			return nil, fmt.Errorf("%s: experiments path digest %s, constructor path %s", n, got, want)
		}
	}
	for id, text := range res.CSV {
		wp.CSV[id] = sha(text)
	}
	if seed == 1 {
		if failed, why := checkPass(root, w, seed, wp, res); failed > 0 {
			return nil, fmt.Errorf("golden check failed: %v", why)
		}
	}
	return wp, nil
}

// parseSeeds parses "1-10" or "1,4,7".
func parseSeeds(s string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.ParseInt(lo, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("seeds %q: %w", s, err)
		}
		b := a
		if isRange {
			if b, err = strconv.ParseInt(hi, 10, 64); err != nil {
				return nil, fmt.Errorf("seeds %q: %w", s, err)
			}
		}
		for x := a; x <= b; x++ {
			out = append(out, x)
		}
	}
	return out, nil
}

// selectWorkloads resolves a comma-separated list (empty: all).
func selectWorkloads(list string) ([]*benchWorkload, error) {
	if list == "" {
		out := make([]*benchWorkload, len(workloads))
		for i := range workloads {
			out[i] = &workloads[i]
		}
		return out, nil
	}
	var out []*benchWorkload
	for _, n := range strings.Split(list, ",") {
		w, err := workloadByName(n)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}
