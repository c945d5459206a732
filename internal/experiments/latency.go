package experiments

import (
	"fmt"

	"ascc/internal/harness"
	"ascc/internal/metrics"
	"ascc/internal/workload"
)

// Fig10 reproduces Figure 10: average-memory-latency improvement over the
// baseline with the local/remote/memory access breakdown, on the 2-core
// mixes, plus the 4-core geomean summary the paper gives in the text.
func Fig10(cfg harness.Config) (Result, error) {
	r := harness.SharedRunner(cfg)
	ids := append([]harness.PolicyID{harness.PBaseline}, mainPolicies...)
	mixes := bothMixes()
	// cells[m*len(ids)+i] is mix m's breakdown under ids[i] (0 = baseline).
	cells, err := collect(len(mixes)*len(ids), func(k int) (metrics.AMLBreakdown, error) {
		run, err := r.RunMix(mixes[k/len(ids)], ids[k%len(ids)])
		return metrics.BreakdownOf(run), err
	})
	if err != nil {
		return Result{}, err
	}
	res := Result{ID: "fig10"}
	res.Table = harness.Table{
		Title:  "Figure 10: AML improvement and access breakdown (2 cores)",
		Header: []string{"workload", "policy", "AML impr", "local%", "remote%", "memory%"},
		Notes: []string{
			"AML treats accesses as sequentially processed (paper §6.2); L1 hits excluded",
			"paper 2-core geomeans: DSR +5%, DSR+DIP +12%, ECC +1%, ASCC +18%, AVGCC +22%",
		},
	}
	fracs := func(b metrics.AMLBreakdown) []string {
		return []string{
			fmt.Sprintf("%.0f", 100*b.LocalFrac),
			fmt.Sprintf("%.0f", 100*b.RemoteFrac),
			fmt.Sprintf("%.0f", 100*b.MemoryFrac),
		}
	}
	// The 2-core table lists every mix; the 4-core group (paper: DSR 10%,
	// DSR+DIP 14%, ECC 11%, ASCC 21%, AVGCC 27%) adds only its geomeans.
	for _, group := range mixGroups() {
		per := make([][]float64, len(mainPolicies))
		for m := range group.mixes {
			row := cells[(group.first+m)*len(ids):][:len(ids)]
			bb := row[0]
			if group.cores == 2 {
				res.Table.Rows = append(res.Table.Rows, append(
					[]string{workload.MixName(group.mixes[m]), "baseline", "-"}, fracs(bb)...))
			}
			for pi, p := range mainPolicies {
				b := row[pi+1]
				// Improvement = latency reduction: positive when AML dropped.
				imp := 1 - b.AML/bb.AML
				per[pi] = append(per[pi], imp)
				if group.cores == 2 {
					res.Table.Rows = append(res.Table.Rows, append(
						[]string{"", string(p), harness.Pct(imp)}, fracs(b)...))
				}
			}
		}
		label := "geomean"
		if group.cores == 4 {
			label = "geomean-4core"
		}
		res.Table.Rows = append(res.Table.Rows, []string{label, "", "", "", "", ""})
		for pi, p := range mainPolicies {
			g := metrics.GeomeanImprovement(per[pi])
			res.set(fmt.Sprintf("aml%d/%s", group.cores, p), g)
			res.Table.Rows = append(res.Table.Rows, []string{
				"", string(p), harness.Pct(g), "", "", "",
			})
		}
	}
	return res, nil
}

// SpillBehavior reproduces §6.4: total spill transfers and hits per spilled
// line for AVGCC against DSR+DIP and ECC, on 2- and 4-core mixes.
func SpillBehavior(cfg harness.Config) (Result, error) {
	r := harness.SharedRunner(cfg)
	pols := []harness.PolicyID{harness.PDSRDIP, harness.PECC, harness.PASCC, harness.PAVGCC}
	mixes := bothMixes()
	cells, err := collect(len(mixes)*len(pols), func(k int) (metrics.SpillStats, error) {
		run, err := r.RunMix(mixes[k/len(pols)], pols[k%len(pols)])
		return metrics.SpillStatsOf(run), err
	})
	if err != nil {
		return Result{}, err
	}
	res := Result{ID: "spills"}
	res.Table = harness.Table{
		Title:  "§6.4: spill volume and hits per spilled line",
		Header: []string{"cores", "policy", "spills", "spill hits", "hits/spill"},
		Notes: []string{
			"paper: AVGCC performs 13%/28% fewer spills than the next-best policy and earns 28%/36% more hits per spill (2/4 cores)",
		},
	}
	for _, group := range mixGroups() {
		for pi, p := range pols {
			var s metrics.SpillStats
			for m := range group.mixes {
				c := cells[(group.first+m)*len(pols)+pi]
				s.Spills += c.Spills
				s.SpillHits += c.SpillHits
			}
			hps := 0.0
			if s.Spills > 0 {
				hps = float64(s.SpillHits) / float64(s.Spills)
			}
			res.Table.Rows = append(res.Table.Rows, []string{
				fmt.Sprintf("%d", group.cores), string(p),
				fmt.Sprintf("%d", s.Spills), fmt.Sprintf("%d", s.SpillHits),
				fmt.Sprintf("%.3f", hps),
			})
			res.set(fmt.Sprintf("hitsPerSpill%d/%s", group.cores, p), hps)
			res.set(fmt.Sprintf("spills%d/%s", group.cores, p), float64(s.Spills))
		}
	}
	return res, nil
}
