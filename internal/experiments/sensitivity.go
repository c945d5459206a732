package experiments

import (
	"fmt"

	"ascc/internal/cmp"
	"ascc/internal/cost"
	"ascc/internal/harness"
	"ascc/internal/metrics"
	"ascc/internal/policies"
	"ascc/internal/workload"
)

// Multithreaded reproduces the §6.3 multithreaded study: SPLASH2/PARSEC-like
// 4-thread workloads on a reduced 512 kB LLC; the metric is the reduction in
// execution time (completion time of the slowest thread) over the baseline.
func Multithreaded(cfg harness.Config) (Result, error) {
	cfg.L2SizeBytes = 512 * 1024 // paper-scale; harness divides by Scale
	r := harness.SharedRunner(cfg)
	pols := []harness.PolicyID{harness.PDSR, harness.PECC, harness.PASCC, harness.PAVGCC}
	profiles := workload.MTProfiles()
	ids := append([]harness.PolicyID{harness.PBaseline}, pols...)
	// times[w*len(ids)+i] is workload w's completion time under ids[i].
	times, err := collect(len(profiles)*len(ids), func(k int) (float64, error) {
		run, err := r.RunMT(profiles[k/len(ids)].Name, harness.MTThreads, ids[k%len(ids)])
		return maxCycles(run), err
	})
	if err != nil {
		return Result{}, err
	}
	res := Result{ID: "mt"}
	header := []string{"workload"}
	for _, p := range pols {
		header = append(header, string(p))
	}
	res.Table = harness.Table{
		Title:  "§6.3: multithreaded workloads (4 threads, 512 kB LLC), execution-time reduction",
		Header: header,
		Notes:  []string{"paper: ASCC +5%, AVGCC +6% on average"},
	}
	per := make([][]float64, len(pols))
	for wi, w := range profiles {
		baseTime := times[wi*len(ids)]
		row := []string{w.Name}
		for pi := range pols {
			imp := 1 - times[wi*len(ids)+pi+1]/baseTime
			per[pi] = append(per[pi], imp)
			row = append(row, harness.Pct(imp))
		}
		res.Table.Rows = append(res.Table.Rows, row)
	}
	geo := []string{"geomean"}
	for pi, p := range pols {
		g := metrics.GeomeanImprovement(per[pi])
		geo = append(geo, harness.Pct(g))
		res.set("geomean/"+string(p), g)
	}
	res.Table.Rows = append(res.Table.Rows, geo)
	return res, nil
}

// maxCycles is the completion time of a run: the slowest thread's cycles.
func maxCycles(res cmp.Results) float64 {
	max := 0.0
	for _, c := range res.Cores {
		if c.Cycles > max {
			max = c.Cycles
		}
	}
	return max
}

// Prefetcher reproduces the §6.3 stride-prefetcher sensitivity: ASCC and
// AVGCC improvements with a 16 kB stride prefetcher per LLC.
func Prefetcher(cfg harness.Config) (Result, error) {
	cfg.Prefetch = true // runs at full fidelity: the harness drops sampling under the prefetcher
	// 2- and 4-core mixes never share a cache key, so one runner serves
	// both groups.
	pols := []harness.PolicyID{harness.PASCC, harness.PAVGCC}
	gains, err := policyGains(harness.SharedRunner(cfg), bothMixes(), pols)
	if err != nil {
		return Result{}, err
	}
	res := Result{ID: "prefetch"}
	res.Table = harness.Table{
		Title:  "§6.3: with a 16 kB stride prefetcher per LLC",
		Header: []string{"cores", "ASCC", "AVGCC"},
		Notes:  []string{"paper: ASCC +6%/+5.5% and AVGCC +6.4%/+7.6% (2/4 cores)"},
	}
	for _, group := range mixGroups() {
		row := []string{fmt.Sprintf("%d", group.cores)}
		for pi, p := range pols {
			g := metrics.GeomeanImprovement(groupWS(gains, group, len(pols), pi))
			row = append(row, harness.Pct(g))
			res.set(fmt.Sprintf("%s/%dcore", p, group.cores), g)
		}
		res.Table.Rows = append(res.Table.Rows, row)
	}
	return res, nil
}

// groupWS picks the weighted-speedup improvements of policy column pi for
// one mix group out of a policyGains grid laid out over bothMixes.
func groupWS(gains []harness.Gain, group mixGroup, npols, pi int) []float64 {
	out := make([]float64, len(group.mixes))
	for m := range out {
		out[m] = gains[(group.first+m)*npols+pi].WS
	}
	return out
}

// Table4 reproduces the cost-benefit analysis: AVGCC's reduction in
// off-chip accesses versus the baseline for 1, 2 and 4 MB caches (paper
// scale), with the storage overhead from the cost model.
func Table4(cfg harness.Config) (Result, error) {
	cfg = cfg.EnsurePool() // one worker bound across the three cache sizes
	sizes := []int{1 << 20, 2 << 20, 4 << 20}
	runners := make([]*harness.Runner, len(sizes))
	for i, size := range sizes {
		c := cfg
		c.L2SizeBytes = size
		runners[i] = harness.SharedRunner(c)
	}
	// The whole (size, mix, policy) cube fans out at once; offChip[k] is
	// cell k's off-chip access count, k = (size*len(mixes) + mix)*2 + policy.
	mixes := bothMixes()
	ids := []harness.PolicyID{harness.PBaseline, harness.PAVGCC}
	offChip, err := collect(len(sizes)*len(mixes)*len(ids), func(k int) (uint64, error) {
		run, err := runners[k/(len(mixes)*len(ids))].RunMix(mixes[k/len(ids)%len(mixes)], ids[k%len(ids)])
		return run.TotalOffChip(), err
	})
	if err != nil {
		return Result{}, err
	}
	res := Result{ID: "table4"}
	res.Table = harness.Table{
		Title:  "Table 4: AVGCC off-chip access reduction vs cache size",
		Header: []string{"cache size", "4-core reduction", "2-core reduction", "storage overhead"},
		Notes:  []string{"paper: 27%/14% at 1 MB, 12%/9% at 2 and 4 MB, 0.17% overhead (kB-rounded)"},
	}
	for si, size := range sizes {
		var reduction [2]float64 // per mix group: 2-core, 4-core
		for gi, group := range mixGroups() {
			var base, avgcc uint64
			for m := range group.mixes {
				k := (si*len(mixes) + group.first + m) * len(ids)
				base += offChip[k]
				avgcc += offChip[k+1]
			}
			reduction[gi] = 1 - float64(avgcc)/float64(base)
		}
		r2, r4 := reduction[0], reduction[1]
		geom := cost.CacheGeometry{SizeBytes: size, Ways: 8, LineBytes: 32, AddressBits: 42}
		oh := cost.AVGCCReport(geom, 0).OverheadFraction()
		res.Table.Rows = append(res.Table.Rows, []string{
			fmt.Sprintf("%dMB", size>>20),
			harness.Pct(r4), harness.Pct(r2),
			fmt.Sprintf("%.2f%%", 100*oh),
		})
		res.set(fmt.Sprintf("reduction4/%dMB", size>>20), r4)
		res.set(fmt.Sprintf("reduction2/%dMB", size>>20), r2)
	}
	return res, nil
}

// LimitedCounters reproduces the §7 storage-reduction study: AVGCC capped
// at a fraction of the full counter count, with the paper-scale storage cost.
func LimitedCounters(cfg harness.Config) (Result, error) {
	sets, ways := cfg.L2Geometry()
	fracs := []int{32, 2, 1} // sets/32, sets/2, unlimited
	vs := make([]variant, len(fracs))
	for i, frac := range fracs {
		// AVGCCDefaultConfig's geometry and seed are placeholders the
		// runner fills in per run; its granularity needs the set count.
		vs[i] = variant{name: fmt.Sprintf("AVGCC-max%d", sets/frac), cfg: policies.AVGCCDefaultConfig(0, sets, ways, 0)}
		vs[i].cfg.ResizePeriod = cfg.ResizePeriod()
		if frac > 1 {
			vs[i].cfg.MaxCounters = sets / frac
		}
	}
	imps, err := variantGains(cfg, vs)
	if err != nil {
		return Result{}, err
	}
	res := Result{ID: "limited"}
	res.Table = harness.Table{
		Title:  "§7: AVGCC with a limited number of counters (4 cores)",
		Header: []string{"max counters (fraction)", "speedup improvement", "storage @ paper scale"},
		Notes:  []string{"paper: +6.8% with 128 counters (83 B), +7.1% with 2048 (1284 B), +7.8% unlimited"},
	}
	paperGeom := cost.PaperGeometry()
	for fi, frac := range fracs {
		maxCounters := sets / frac
		g := metrics.GeomeanImprovement(imps[fi])
		rep := cost.AVGCCReport(paperGeom, paperGeom.Sets()/frac)
		label := fmt.Sprintf("%d (sets/%d)", maxCounters, frac)
		if frac == 1 {
			label = fmt.Sprintf("%d (all)", maxCounters)
		}
		res.Table.Rows = append(res.Table.Rows, []string{
			label, harness.Pct(g),
			fmt.Sprintf("%.0fB", float64(rep.TotalOverheadBits())/8),
		})
		res.set(fmt.Sprintf("geomean/div%d", frac), g)
	}
	return res, nil
}

// Fig11 reproduces Figure 11: QoS-Aware AVGCC versus AVGCC on the 2-core
// mixes, plus the 4-core geomean the paper gives in the text (8.1%).
func Fig11(cfg harness.Config) (Result, error) {
	pols := []harness.PolicyID{harness.PAVGCC, harness.PQoSAVGCC}
	gains, err := policyGains(harness.SharedRunner(cfg), bothMixes(), pols)
	if err != nil {
		return Result{}, err
	}
	res := Result{ID: "fig11"}
	res.Table = harness.Table{
		Title:  "Figure 11: QoS-Aware AVGCC vs AVGCC (2 cores)",
		Header: []string{"workload", "AVGCC", "QoS-AVGCC"},
		Notes:  []string{"paper: QoS-AVGCC removes AVGCC's degradations and edges it out overall"},
	}
	for _, group := range mixGroups() {
		av, qs := groupWS(gains, group, len(pols), 0), groupWS(gains, group, len(pols), 1)
		label, key := "geomean", "geomean"
		if group.cores == 2 {
			for m, mix := range group.mixes {
				res.Table.Rows = append(res.Table.Rows, []string{
					workload.MixName(mix), harness.Pct(av[m]), harness.Pct(qs[m]),
				})
			}
		} else {
			label, key = "geomean-4core", "geomean4"
		}
		ga, gq := metrics.GeomeanImprovement(av), metrics.GeomeanImprovement(qs)
		res.Table.Rows = append(res.Table.Rows, []string{label, harness.Pct(ga), harness.Pct(gq)})
		res.set(key+"/AVGCC", ga)
		res.set(key+"/QoS-AVGCC", gq)
	}
	return res, nil
}

// Table5 reproduces the storage-cost table (pure arithmetic at the paper's
// geometry — independent of the simulation scale).
func Table5(cfg harness.Config) (Result, error) {
	res := Result{ID: "table5"}
	res.Table = harness.Table{
		Title:  "Table 5: storage cost at the paper's 1MB/8-way/32B geometry",
		Header: []string{"design", "overhead bits", "overhead bytes", "exact %", "paper-rounded %"},
	}
	for _, d := range cost.Designs(cost.PaperGeometry(), 0) {
		rep := d.Report
		res.Table.Rows = append(res.Table.Rows, []string{
			d.Name,
			fmt.Sprintf("%d", rep.TotalOverheadBits()),
			fmt.Sprintf("%.1f", float64(rep.TotalOverheadBits())/8),
			fmt.Sprintf("%.3f%%", 100*rep.OverheadFraction()),
			fmt.Sprintf("%.2f%%", rep.PaperRoundedPercent()),
		})
		switch d.Name {
		case "AVGCC":
			res.set("avgccBits", float64(rep.TotalOverheadBits()))
			res.set("avgccPct", 100*rep.OverheadFraction())
		case "QoS-AVGCC":
			res.set("qosPct", 100*rep.OverheadFraction())
		}
	}
	return res, nil
}
