package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"ascc/internal/metrics"
)

func sha(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// checkPass compares one pass with the pinned outputs and returns how many
// of its simulations failed, with a reason for each kind of failure. A
// simulation fails when its digest differs from the pinned one; when a
// table differs from its pinned hash or golden file, or the store check
// fails, no single simulation can be blamed and the whole pass fails.
func checkPass(root string, w *benchWorkload, seed uint64, pin *workloadPin, res passResult) (int, []string) {
	var notes []string
	failed := 0
	for name, want := range pin.Records {
		if got, ok := res.Records[name]; !ok || got.Digest != want {
			failed++
			if len(notes) < 3 {
				notes = append(notes, fmt.Sprintf("%s: digest %q, pinned %q", name, got.Digest, want))
			}
		}
	}
	if extra := len(res.Records) - len(pin.Records); extra > 0 {
		failed += extra
		notes = append(notes, fmt.Sprintf("%d simulations not pinned", extra))
	}
	whole := false
	for id, text := range res.CSV {
		if sha(text) != pin.CSV[id] {
			whole = true
			notes = append(notes, fmt.Sprintf("%s table differs from its pinned hash", id))
		}
	}
	if seed == 1 {
		for _, id := range w.golden {
			want, err := os.ReadFile(filepath.Join(root, "internal", "experiments", "testdata", id+".golden.csv"))
			if err != nil || string(want) != res.CSV[id] {
				whole = true
				notes = append(notes, fmt.Sprintf("%s table differs from its golden file", id))
			}
		}
	}
	if len(res.StoreChanged) > 0 {
		whole = true
		notes = append(notes, fmt.Sprintf("store missed, rejected or grew %d arenas (e.g. %s)", len(res.StoreChanged), res.StoreChanged[0]))
	}
	if whole {
		failed = len(pin.Records)
	}
	return failed, notes
}

// accuracy compares set-sampled estimates with full-fidelity CPIs: the
// mean relative CPI error over every (simulation, core), in percent, and
// the mean error of every simulation's improvement over its baseline, in
// percentage points. The improvement is the workload's own figure of
// merit: weighted speedup for mixes, execution time (slowest thread) for
// the multithreaded profiles, aggregate CPI against the 4-core machine for
// the scaleout widths.
func accuracy(w *benchWorkload, seed uint64, sampled map[string]record, full map[string][]float64) (cpiErrPct, impErrPP float64, err error) {
	var cpiSum, impSum float64
	var nCPI, nImp int
	sims := w.sims(w.config(seed, 0, 1))
	for _, s := range sims {
		est, ok1 := sampled[s.name]
		ref, ok2 := full[s.name]
		if !ok1 || !ok2 || len(est.CPI) != len(ref) {
			return 0, 0, fmt.Errorf("accuracy: no estimate or reference for %s", s.name)
		}
		for i := range ref {
			cpiSum += math.Abs(est.CPI[i]-ref[i]) / ref[i]
			nCPI++
		}
		if s.base == "" {
			continue
		}
		ie, err := improvement(s, est.CPI, func(n string) []float64 { return sampled[n].CPI })
		if err != nil {
			return 0, 0, err
		}
		ir, err := improvement(s, ref, func(n string) []float64 { return full[n] })
		if err != nil {
			return 0, 0, err
		}
		impSum += math.Abs(ie - ir)
		nImp++
	}
	if nCPI == 0 || nImp == 0 {
		return 0, 0, fmt.Errorf("accuracy: nothing to compare")
	}
	return 100 * cpiSum / float64(nCPI), 100 * impSum / float64(nImp), nil
}

// improvement is s's figure of merit over its baseline given its per-core
// CPIs; cpis looks up another simulation's.
func improvement(s sim, run []float64, cpis func(string) []float64) (float64, error) {
	base := cpis(s.base)
	if len(base) == 0 {
		return 0, fmt.Errorf("accuracy: no baseline %s for %s", s.base, s.name)
	}
	switch {
	case s.direct:
		return run[0]/base[0] - 1, nil
	case s.kind == "mt":
		return 1 - maxOf(run)/maxOf(base), nil
	}
	alone := make([]float64, len(s.alone))
	for i, n := range s.alone {
		a := cpis(n)
		if len(a) != 1 {
			return 0, fmt.Errorf("accuracy: no alone run %s for %s", n, s.name)
		}
		alone[i] = a[0]
	}
	return metrics.Improvement(metrics.WeightedSpeedup(run, alone), metrics.WeightedSpeedup(base, alone)), nil
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Max(m, x)
	}
	return m
}

// cpiMap extracts the per-core CPIs of a record set.
func cpiMap(recs map[string]record) map[string][]float64 {
	m := make(map[string][]float64, len(recs))
	for n, r := range recs {
		m[n] = r.CPI
	}
	return m
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}
