package experiments

import (
	"fmt"

	"ascc/internal/harness"
	"ascc/internal/metrics"
	"ascc/internal/workload"
)

// gainTable runs each mix under each policy and tabulates one side of its
// gain over the private baseline (weighted speedup or fairness), with a
// geomean summary row — the shape of Figures 4, 5, 7, 8 and 9. The runner's
// memo collapses the repeated baseline and alone-CPI runs to one
// simulation each.
func gainTable(cfg harness.Config, id, title string, mixes [][]int, pols []harness.PolicyID, side func(harness.Gain) float64) (Result, error) {
	gains, err := policyGains(harness.SharedRunner(cfg), mixes, pols)
	if err != nil {
		return Result{}, err
	}
	res := Result{ID: id}
	header := []string{"workload"}
	for _, p := range pols {
		header = append(header, string(p))
	}
	res.Table = harness.Table{Title: title, Header: header}
	per := make([][]float64, len(pols))
	for mi, mix := range mixes {
		row := []string{workload.MixName(mix)}
		for pi := range pols {
			imp := side(gains[mi*len(pols)+pi])
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

func weightedSpeedup(g harness.Gain) float64 { return g.WS }
func fairness(g harness.Gain) float64        { return g.Fair }

// mainPolicies are the five designs of the paper's main comparisons.
var mainPolicies = []harness.PolicyID{harness.PDSR, harness.PDSRDIP, harness.PECC, harness.PASCC, harness.PAVGCC}

// Fig4 reproduces the design breakdown of Figure 4: LRS, LMS, GMS, LMS+BIP,
// GMS+SABIP, DSR and ASCC on the four-application mixes.
func Fig4(cfg harness.Config) (Result, error) {
	return gainTable(cfg, "fig4",
		"Figure 4: design breakdown, weighted-speedup improvement (4 cores)",
		workload.FourAppMixes(),
		[]harness.PolicyID{harness.PLRS, harness.PLMS, harness.PGMS,
			harness.PLMSBIP, harness.PGMSSABIP, harness.PDSR, harness.PASCC},
		weightedSpeedup)
}

// Fig5 reproduces the neutral-state study of Figure 5: ASCC vs its
// two-state variant, and DSR vs its three-state variant.
func Fig5(cfg harness.Config) (Result, error) {
	return gainTable(cfg, "fig5",
		"Figure 5: value of the neutral state (4 cores)",
		workload.FourAppMixes(),
		[]harness.PolicyID{harness.PASCC, harness.PASCC2S, harness.PDSR, harness.PDSR3S},
		weightedSpeedup)
}

// Fig7 reproduces Figure 7: the main 2-core comparison.
func Fig7(cfg harness.Config) (Result, error) {
	return gainTable(cfg, "fig7",
		"Figure 7: weighted-speedup improvement over baseline (2 cores)",
		workload.TwoAppMixes(), mainPolicies, weightedSpeedup)
}

// Fig8 reproduces Figure 8: the main 4-core comparison.
func Fig8(cfg harness.Config) (Result, error) {
	return gainTable(cfg, "fig8",
		"Figure 8: weighted-speedup improvement over baseline (4 cores)",
		workload.FourAppMixes(), mainPolicies, weightedSpeedup)
}

// Fig9 reproduces Figure 9: fairness (harmonic mean of normalised IPCs)
// improvement on the 4-core mixes.
func Fig9(cfg harness.Config) (Result, error) {
	return gainTable(cfg, "fig9",
		"Figure 9: fairness (harmonic mean) improvement over baseline (4 cores)",
		workload.FourAppMixes(), mainPolicies, fairness)
}

// SharedLLC reproduces the §6.1 shared-cache comparison: a shared LLC of
// the private caches' aggregate capacity versus the private baseline, in
// performance and fairness, for 2 and 4 cores.
func SharedLLC(cfg harness.Config) (Result, error) {
	gains, err := gainGrid(harness.SharedRunner(cfg), bothMixes(), 1, func(mix []int, _ int) harness.Spec {
		return harness.Spec{Kind: harness.KindShared, Mix: mix}
	})
	if err != nil {
		return Result{}, err
	}
	res := Result{ID: "shared"}
	res.Table = harness.Table{
		Title:  "§6.1: shared LLC of aggregate capacity vs private baseline",
		Header: []string{"cores", "perf improvement", "fairness improvement"},
		Notes: []string{
			"paper: +1.8%/+1.7% at 2 cores and +3%/+3% at 4 cores — far below ASCC/AVGCC",
		},
	}
	for _, group := range mixGroups() {
		var perfs, fairs []float64
		for _, g := range gains[group.first : group.first+len(group.mixes)] {
			perfs = append(perfs, g.WS)
			fairs = append(fairs, g.Fair)
		}
		perf := metrics.GeomeanImprovement(perfs)
		fair := metrics.GeomeanImprovement(fairs)
		res.Table.Rows = append(res.Table.Rows, []string{
			fmt.Sprintf("%d", group.cores), harness.Pct(perf), harness.Pct(fair),
		})
		res.set(fmt.Sprintf("perf/%dcore", group.cores), perf)
		res.set(fmt.Sprintf("fair/%dcore", group.cores), fair)
	}
	return res, nil
}

// Table1 reproduces the granularity sweep: ASCC grouping 1, 4, 16, 64, 256
// and all sets per counter (the paper's ASCC..ASCC1 columns, expressed as
// counters per cache at the configured geometry).
func Table1(cfg harness.Config) (Result, error) {
	sets, _ := cfg.L2Geometry()
	groupSizes := []int{1, 4, 16, 64, 256, sets}
	vs := make([]variant, len(groupSizes))
	for i, g := range groupSizes {
		vs[i] = variant{name: fmt.Sprintf("ASCC%d", sets/g), cfg: asccBase}
		vs[i].cfg.Granularity = log2(g)
	}
	imps, err := variantGains(cfg, vs)
	if err != nil {
		return Result{}, err
	}
	res := Result{ID: "table1"}
	header := []string{"workload"}
	for _, g := range groupSizes {
		header = append(header, fmt.Sprintf("ASCC%d", sets/g))
	}
	res.Table = harness.Table{
		Title:  "Table 1: ASCC granularity sweep, weighted-speedup improvement (4 cores)",
		Header: header,
		Notes: []string{
			fmt.Sprintf("columns are counters per cache at the scaled geometry (%d sets); the paper's 4096-set columns map proportionally", sets),
		},
	}
	for mi, mix := range workload.FourAppMixes() {
		row := []string{workload.MixName(mix)}
		for gi := range groupSizes {
			row = append(row, harness.Pct(imps[gi][mi]))
		}
		res.Table.Rows = append(res.Table.Rows, row)
	}
	geo := []string{"geomean"}
	for gi, g := range groupSizes {
		m := metrics.GeomeanImprovement(imps[gi])
		geo = append(geo, harness.Pct(m))
		res.set(fmt.Sprintf("geomean/ASCC%d", sets/g), m)
	}
	res.Table.Rows = append(res.Table.Rows, geo)
	return res, nil
}

func log2(n int) int {
	d := 0
	for n > 1 {
		n >>= 1
		d++
	}
	return d
}
