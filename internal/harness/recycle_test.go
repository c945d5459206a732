package harness

import (
	"reflect"
	"testing"

	"ascc/internal/cmp"
	"ascc/internal/workload"
)

// TestRecycledStorageAcrossGeometries drives the recycling of finished
// systems' cache storage under concurrency: memoised runs of several
// machine geometries — 4- and 16-core widened mixes, a set-sampled mix and
// the shared-LLC machine — fan out on a 2-slot pool, so systems of
// different geometries release their slabs and directory tables while
// others build from the same per-length pools. Every result must equal a
// sequential 1-slot runner's. Under -race this also checks that a released
// slab is never touched by the system that gave it back.
func TestRecycledStorageAcrossGeometries(t *testing.T) {
	full := DefaultConfig()
	full.WarmupInstr, full.MeasureInstr = 20_000, 60_000
	sampled := full
	sampled.SampleDen = 8

	mix := []int{445, 444, 456, 471}
	type job struct {
		sampled bool
		spec    Spec
	}
	jobs := []job{
		{false, Spec{Mix: workload.ExtendMix(mix, 4), Policy: PBaseline}},
		{false, Spec{Mix: workload.ExtendMix(mix, 4), Policy: PAVGCC}},
		{false, Spec{Mix: workload.ExtendMix(mix, 4), Policy: PDSR}},
		{false, Spec{Mix: workload.ExtendMix(mix, 16), Policy: PAVGCC}},
		{false, Spec{Mix: workload.ExtendMix(mix, 16), Policy: PBaseline}},
		{false, Spec{Kind: KindShared, Mix: mix}},
		{false, Spec{Mix: []int{445}, Policy: PBaseline}},
		{true, Spec{Mix: mix, Policy: PAVGCC}},
	}

	run := func(pool *Pool) []cmp.Results {
		runners := [2]*Runner{NewRunner(full.WithPool(pool)), NewRunner(sampled.WithPool(pool))}
		out := make([]cmp.Results, len(jobs))
		err := ForEach(len(jobs), func(i int) error {
			r := runners[0]
			if jobs[i].sampled {
				r = runners[1]
			}
			var err error
			out[i], err = r.Run(jobs[i].spec)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	seq := run(NewPool(1))
	for round := 0; round < 2; round++ {
		par := run(NewPool(2))
		for i := range jobs {
			if !reflect.DeepEqual(par[i], seq[i]) {
				t.Fatalf("round %d, job %d (%+v): 2-slot result differs from the sequential one:\n%+v\nvs\n%+v",
					round, i, jobs[i].spec, par[i], seq[i])
			}
		}
	}
}
