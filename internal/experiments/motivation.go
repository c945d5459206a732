package experiments

import (
	"fmt"

	"ascc/internal/cachesim"
	"ascc/internal/harness"
	"ascc/internal/workload"
)

// fig1Benchmarks are the eight SPEC models of Figure 1: the upper row can
// offer capacity (streaming / small working sets), the lower row benefits
// from extra ways.
var fig1Benchmarks = []int{
	433, 482, 444, 445, // upper row: milc, sphinx3, namd, gobmk
	401, 450, 456, 473, // lower row: bzip2, soplex, hmmer, astar
}

// fig1Cache builds the 2 MB / 16-way study cache with w enabled ways
// (w == 0 means fully associative), scaled like everything else.
func fig1Cache(cfg harness.Config, w int) cachesim.Config {
	c := cachesim.Config{
		SizeBytes: 2 * 1024 * 1024 / cfg.Scale,
		Ways:      16,
		LineBytes: 32,
	}
	if w == 0 {
		c.FullyAssoc = true
	} else {
		c.EnabledWays = w
	}
	return c
}

// singleSpec runs benchmark id alone on the study cache with w enabled ways.
func singleSpec(cfg harness.Config, id, w int) harness.Spec {
	return harness.Spec{Kind: harness.KindSingle, Mix: []int{id}, L2: fig1Cache(cfg, w), Policy: harness.PBaseline}
}

// Fig1 reproduces Figure 1: MPKI and CPI as the number of enabled ways of a
// 2 MB/16-way L2 grows from 2 to 16, plus full associativity. The
// (benchmark, ways) grid fans out on the worker pool and is assembled by
// index, so the table is identical at every Config.Parallel setting.
func Fig1(cfg harness.Config) (Result, error) {
	r := harness.SharedRunner(cfg)
	ways := []int{2, 4, 6, 8, 10, 12, 14, 16, 0} // 0 = fully associative
	res := Result{ID: "fig1"}
	res.Table = harness.Table{
		Title:  "Figure 1: MPKI / CPI vs enabled ways (2MB 16-way L2, scaled)",
		Header: []string{"benchmark", "metric", "2", "4", "6", "8", "10", "12", "14", "16", "FA"},
		Notes: []string{
			"upper rows can offer capacity; lower rows benefit from more ways (paper Fig. 1)",
		},
	}
	type cell struct{ mpki, cpi float64 }
	cells, err := collect(len(fig1Benchmarks)*len(ways), func(k int) (cell, error) {
		// Single-core way points sample exactly (the closure argument,
		// DESIGN.md §16); the fully associative point has one set, so the
		// runner keeps it at full fidelity.
		run, err := r.Run(singleSpec(cfg, fig1Benchmarks[k/len(ways)], ways[k%len(ways)]))
		if err != nil {
			return cell{}, err
		}
		return cell{mpki: run.Cores[0].MPKI(), cpi: run.Cores[0].CPI()}, nil
	})
	if err != nil {
		return Result{}, err
	}
	for bi, id := range fig1Benchmarks {
		p := workload.MustByID(id)
		mpkiRow := []string{p.Name, "MPKI"}
		cpiRow := []string{"", "CPI"}
		for wi, w := range ways {
			c := cells[bi*len(ways)+wi]
			mpkiRow = append(mpkiRow, fmt.Sprintf("%.2f", c.mpki))
			cpiRow = append(cpiRow, fmt.Sprintf("%.2f", c.cpi))
			if w == 2 {
				res.set(fmt.Sprintf("%s/mpki@2", p.Name), c.mpki)
			}
			if w == 16 {
				res.set(fmt.Sprintf("%s/mpki@16", p.Name), c.mpki)
			}
		}
		res.Table.Rows = append(res.Table.Rows, mpkiRow, cpiRow)
	}
	return res, nil
}

// Fig2 reproduces Figure 2: the percentage of sets that benefit from more
// ways (favored) versus sets that remain unchanged (constant), for astar and
// milc, comparing each way count with two fewer ways.
func Fig2(cfg harness.Config) (Result, error) {
	// Fig2 inspects per-set miss rates across the whole L2; the set sample
	// would leave most of those sets unsimulated, so it runs full fidelity.
	cfg.SampleDen = 0
	r := harness.SharedRunner(cfg)
	ways := []int{4, 6, 8, 10, 12, 14, 16}
	res := Result{ID: "fig2"}
	res.Table = harness.Table{
		Title:  "Figure 2: favored vs constant sets as ways grow (2MB 16-way L2, scaled)",
		Header: []string{"benchmark", "ways", "favored%", "constant%"},
		Notes: []string{
			"a set is favored when its MPKI drops >1% vs the run with 2 fewer ways (paper §2)",
		},
	}
	benchmarks := []int{473, 433} // astar (a), milc (b)
	allWays := append([]int{2}, ways...)
	// Per-set miss rates for every (benchmark, way count).
	countsAt, err := collect(len(benchmarks)*len(allWays), func(k int) ([]float64, error) {
		run, sys, err := r.RunSystem(singleSpec(cfg, benchmarks[k/len(allWays)], allWays[k%len(allWays)]))
		if err != nil {
			return nil, err
		}
		instr := float64(run.Cores[0].Instructions)
		l2 := sys.L2(0)
		counts := make([]float64, l2.NumSets())
		for s := range counts {
			counts[s] = float64(l2.SetStatsFor(s).Misses) / instr * 1000
		}
		return counts, nil
	})
	if err != nil {
		return Result{}, err
	}
	for bi, id := range benchmarks {
		p := workload.MustByID(id)
		perSet := make(map[int][]float64, len(allWays))
		for wi, w := range allWays {
			perSet[w] = countsAt[bi*len(allWays)+wi]
		}
		for _, w := range ways {
			cur, prev := perSet[w], perSet[w-2]
			favored, constant := 0, 0
			for s := range cur {
				if cur[s] < prev[s]*0.99 {
					favored++
				} else {
					constant++
				}
			}
			total := float64(len(cur))
			fPct := 100 * float64(favored) / total
			cPct := 100 * float64(constant) / total
			res.Table.Rows = append(res.Table.Rows, []string{
				p.Name, fmt.Sprintf("%d", w), fmt.Sprintf("%.0f", fPct), fmt.Sprintf("%.0f", cPct),
			})
			res.set(fmt.Sprintf("%s/favored@%d", p.Name, w), fPct)
		}
	}
	return res, nil
}
