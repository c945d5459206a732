package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the self-check reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// setSummary is one metric over one set of runs.
type setSummary struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3-q1)/median
	Values []float64 `json:"values"`
}

// metricCheck compares the sets of one metric with its bound.
type metricCheck struct {
	Bound float64      `json:"bound"`
	Sets  []setSummary `json:"sets"`
	// Shift is how far each later set's median lies from the first's, in
	// either direction, as a share of the first.
	Shift []float64 `json:"shift"`
	Agree bool      `json:"agree"`
}

// selfcheckMain runs -sets sets of -runs runs of every selected workload
// (seeds from -seeds, the same in every set) and reports, per workload and
// end-to-end metric, each set's median and quartiles and whether the sets
// agree: every spread within the bound, and no later median further from
// the first, in either direction, than the bound. setup_s's spread is left
// out, as the benchmark contract leaves it out; its medians must agree.
func selfcheckMain(o *options) error {
	b, err := os.ReadFile(filepath.Join(o.root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	names := strings.Split(o.workloads, ",")
	if o.workloads == "" {
		names = nil
		for _, w := range spec.Workloads {
			names = append(names, w.Name)
		}
	}
	seeds, err := parseSeeds(o.seeds)
	if err != nil {
		return err
	}
	if len(seeds) < o.runs {
		return fmt.Errorf("selfcheck: %d seeds for %d runs per set", len(seeds), o.runs)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	report := map[string]any{"env": map[string]any{
		"commit":     sourceCommit(o.root),
		"go":         runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"pool_width": poolWidth(),
		"runs":       o.runs,
		"sets":       o.sets,
	}}
	allAgree := true
	for _, wl := range names {
		values := map[string][][]float64{} // metric -> set -> values
		failedRuns := 0
		for set := 0; set < o.sets; set++ {
			for i := 0; i < o.runs; i++ {
				res, err := runOnce(exe, o, wl, seeds[i], spec.RunSeconds)
				if err != nil || !res.Correct {
					failedRuns++
					fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: run failed (%v)\n", wl, seeds[i], err)
					continue
				}
				for name, m := range res.Metrics {
					for len(values[name]) <= set {
						values[name] = append(values[name], nil)
					}
					values[name][set] = append(values[name][set], m.Value)
				}
				fmt.Fprintf(os.Stderr, "perfbench: %s set %d seed %d: %v\n", wl, set, seeds[i], res.Metrics)
			}
		}
		checks := map[string]metricCheck{}
		for _, e := range spec.EndToEnd {
			mc := metricCheck{Bound: e.Bound, Agree: true}
			for _, vs := range values[e.Name] {
				q1, q3 := quartiles(vs)
				med := median(vs)
				mc.Sets = append(mc.Sets, setSummary{Median: med, Q1: q1, Q3: q3, Spread: (q3 - q1) / med, Values: vs})
			}
			if len(mc.Sets) != o.sets {
				mc.Agree = false
			}
			for k, s := range mc.Sets {
				if e.Name != "setup_s" && !(s.Spread <= e.Bound) {
					mc.Agree = false
				}
				if k == 0 {
					continue
				}
				shift := math.Abs(s.Median-mc.Sets[0].Median) / mc.Sets[0].Median
				mc.Shift = append(mc.Shift, shift)
				if !(shift <= e.Bound) {
					mc.Agree = false
				}
			}
			allAgree = allAgree && mc.Agree
			checks[e.Name] = mc
		}
		allAgree = allAgree && failedRuns == 0
		report[wl] = map[string]any{"failed_runs": failedRuns, "metrics": checks}
	}
	report["agree"] = allAgree
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

// runOnce runs the benchmark once as a child process and parses its last
// output line.
func runOnce(exe string, o *options, wl string, seed int64, seconds int) (result, error) {
	cmd := exec.Command(exe, "-root", o.root, "-build", o.build, "-workload", wl,
		"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, fmt.Errorf("result line: %w", err)
	}
	return res, nil
}

// sourceCommit identifies the code measured: the git commit when the root
// is a git checkout, otherwise a hash of go.mod and every Go source file.
func sourceCommit(root string) string {
	git := exec.Command("git", "-C", root, "rev-parse", "HEAD")
	git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	if out, err := git.Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return "src-" + hex.EncodeToString(h.Sum(nil)[:8])
}
