package harness

import (
	"fmt"

	"ascc/internal/cachesim"
	"ascc/internal/cmp"
	"ascc/internal/coop"
	"ascc/internal/policies"
	"ascc/internal/rng"
	"ascc/internal/trace"
	"ascc/internal/workload"
)

// Kind selects the machine and the workload shape a Spec describes.
type Kind uint8

const (
	KindMix    Kind = iota // a multiprogrammed mix on private LLCs; one benchmark is an alone run
	KindShared             // a mix on the shared-LLC machine of §6.1, which has no policy
	KindMT                 // a multithreaded profile, threads sharing one address space (§6.3)
	KindSingle             // one benchmark alone on an explicit LLC (Figs. 1-2)
)

// MTThreads is the thread count of the §6.3 multithreaded study.
const MTThreads = 4

// Spec describes one simulation under a runner's configuration. The runner
// fills in what the configuration fixes (geometry, seed, budgets,
// sampling), so a Spec names only what varies between runs.
type Spec struct {
	Kind Kind
	// Mix lists the benchmarks, one per core (KindMix, KindShared), or the
	// one benchmark of a KindSingle run. It runs as given: RunMix widens to
	// Config.Cores before building its Spec.
	Mix []int
	// Profile and Threads name a KindMT workload.
	Profile string
	Threads int
	// L2 is a KindSingle run's LLC. A one-set (fully associative) L2 has
	// nothing to sample, so it always runs at full fidelity.
	L2 cachesim.Config
	// Policy is a registry design or, with ASCC set, the display name of a
	// caller-built one. KindShared ignores it.
	Policy PolicyID
	// ASCC, when non-nil, is a caller-built point of the ASCC design space;
	// the runner fills in its Caches, Sets, Assoc and Seed.
	ASCC *policies.ASCCConfig
}

// runKey is a Spec reduced to a comparable value: it identifies one
// memoisable simulation of the runner's fixed configuration. ASCC-family
// designs are keyed by their complete configuration, not their name, so a
// registry design and an equal caller-built variant share one simulation.
type runKey struct {
	kind    Kind
	name    string // workload.MixName(Mix), or the MT profile
	threads int
	l2      cachesim.Config
	policy  PolicyID            // designs outside the ASCC family
	ascc    policies.ASCCConfig // ASCC-family designs
}

// resolve reduces s to its memo key, rejecting a spec no machine can run.
func (r *Runner) resolve(s Spec) (runKey, error) {
	key := runKey{kind: s.Kind, name: workload.MixName(s.Mix), threads: s.Threads, l2: s.L2}
	cores := len(s.Mix)
	if s.Kind == KindMT {
		key.name, cores = s.Profile, s.Threads
	}
	if cores < 1 || s.Kind == KindSingle && cores != 1 {
		return runKey{}, fmt.Errorf("harness: spec %+v has a bad core count", s)
	}
	if c, ok := r.asccConfig(s, cores); ok {
		key.ascc = c
	} else if s.Kind != KindShared {
		key.policy = s.Policy
	}
	return key, nil
}

// asccConfig returns s's ASCC-family design filled in for a machine of the
// given core count: the caller-built variant, or the registry design's
// configuration. ok is false on the shared machine and outside the family.
func (r *Runner) asccConfig(s Spec, cores int) (policies.ASCCConfig, bool) {
	sets, ways := r.Cfg.L2Geometry()
	switch {
	case s.Kind == KindShared:
		return policies.ASCCConfig{}, false
	case s.ASCC == nil:
		return asccDesign(s.Policy, cores, sets, ways, r.Cfg.Seed, r.Cfg.ResizePeriod())
	}
	c := *s.ASCC
	c.Caches, c.Sets, c.Assoc, c.Seed = cores, sets, ways, r.Cfg.Seed
	return c, true
}

// policy builds s's design for the machine p describes; the shared machine
// has none (nil). p is validated first, so a bad geometry fails with cmp's
// error instead of a policy constructor's panic.
func (r *Runner) policy(s Spec, p cmp.Params) (coop.Policy, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if c, ok := r.asccConfig(s, p.Cores); ok {
		return policies.NewASCCVariant(string(s.Policy), c), nil
	}
	if s.Kind == KindShared {
		return nil, nil
	}
	sets, ways := r.Cfg.L2Geometry()
	return NewPolicy(s.Policy, p.Cores, sets, ways, r.Cfg.Seed, r.Cfg.ResizePeriod())
}

// source builds s's workload: fresh generators, one per core, the arena-key
// namespace their streams live under, and each core's profile (timing and
// reference rate). Runs and the prewarmer both draw their streams from
// here, so their arena keys agree by construction.
func (r *Runner) source(s Spec) (kind string, gens []trace.Generator, profs []workload.Profile, err error) {
	seed, scale := r.Cfg.Seed, r.Cfg.Scale
	switch s.Kind {
	case KindMix, KindShared:
		// The shared machine samples with the private machine's spec (its
		// aggregate L2 keeps the same residue granule), so it replays the
		// mix runs' streams and filtered sub-arenas as-is.
		gens, profs, err = workload.BuildMix(s.Mix, seed, scale)
		return "mix", gens, profs, err
	case KindSingle:
		p, err := workload.ByID(s.Mix[0])
		if err != nil {
			return "", nil, nil, err
		}
		return "single", []trace.Generator{p.NewGenerator(rng.Mix64(seed+77), 0, scale)}, []workload.Profile{p}, nil
	case KindMT:
		p, err := workload.MTProfileByName(s.Profile)
		if err != nil {
			return "", nil, nil, err
		}
		gens = p.NewGenerators(s.Threads, rng.Mix64(seed^0x317), scale)
		profs = make([]workload.Profile, len(gens))
		for i := range profs {
			profs[i] = workload.Profile{Name: p.Name, BaseCPI: p.BaseCPI, Overlap: p.Overlap, RefsPerKInstr: p.RefsPerKInstr}
		}
		return "mt", gens, profs, nil
	}
	return "", nil, nil, fmt.Errorf("harness: unknown spec kind %d", s.Kind)
}

// newSystem builds the machine a resolved spec describes: its streams
// replay from the runner's arenas, and its geometry is the configuration's
// (a KindSingle run swaps in its own L2).
func (r *Runner) newSystem(s Spec) (*cmp.System, error) {
	kind, gens, profs, err := r.source(s)
	if err != nil {
		return nil, err
	}
	p := r.Cfg.Params(len(gens))
	if s.Kind == KindSingle {
		p.L2 = s.L2
		if s.L2.Ways*s.L2.LineBytes == s.L2.SizeBytes {
			p.SampleDen = 0 // one set: nothing to sample
		}
	}
	pol, err := r.policy(s, p)
	if err != nil {
		return nil, err
	}
	if gens, err = r.replayGens(kind, gens, p); err != nil {
		return nil, err
	}
	timing := make([]cmp.CoreTiming, len(profs))
	for i, pr := range profs {
		timing[i] = cmp.CoreTiming{BaseCPI: pr.BaseCPI, Overlap: pr.Overlap}
	}
	return assemble(p, gens, timing, pol)
}

// assemble is the harness's one call into the cmp constructors: a nil
// policy selects the shared-LLC machine.
func assemble(p cmp.Params, gens []trace.Generator, timing []cmp.CoreTiming, pol coop.Policy) (*cmp.System, error) {
	if pol == nil {
		return cmp.NewShared(p, gens, timing)
	}
	return cmp.New(p, gens, timing, pol)
}

// Run simulates s (memoised — callers share the returned Results and must
// not mutate them). The system is built, run and released inside one pool
// slot, and concurrent or repeated requests with equal keys share one
// simulation.
// Results.Policy names the requesting spec's design, so no result depends
// on which of several equal requests ran first.
func (r *Runner) Run(s Spec) (cmp.Results, error) {
	key, err := r.resolve(s)
	if err != nil {
		return cmp.Results{}, err
	}
	res, err := r.memo(key, func() (cmp.Results, error) {
		res, _, err := r.simulate(func() (*cmp.System, error) { return r.newSystem(s) }, false)
		return res, err
	})
	if s.Kind != KindShared {
		res.Policy = string(s.Policy)
	}
	return res, err
}

// RunSystem simulates s like Run but unmemoised, and also returns the run
// system for inspection after the run (Fig. 2's per-set statistics). The
// system is caller-owned.
func (r *Runner) RunSystem(s Spec) (cmp.Results, *cmp.System, error) {
	if _, err := r.resolve(s); err != nil {
		return cmp.Results{}, nil, err
	}
	return r.simulate(func() (*cmp.System, error) { return r.newSystem(s) }, true)
}

// Build builds but does not run s's system, outside the pool and the memo:
// benchmarks and allocation tests drive it directly to time or instrument
// the simulation separately from workload and system construction. The
// system is caller-owned, as RunSystem's is: the runner never releases it.
func (r *Runner) Build(s Spec) (*cmp.System, error) {
	if _, err := r.resolve(s); err != nil {
		return nil, err
	}
	return r.newSystem(s)
}

// RunMix runs a multiprogrammed mix under a registry policy (memoised, see
// Run). The mix is widened to Config.Cores by cyclic replication first.
func (r *Runner) RunMix(mix []int, id PolicyID) (cmp.Results, error) {
	return r.Run(Spec{Mix: r.Cfg.extend(mix), Policy: id})
}

// RunMT runs a multithreaded workload (threads share one address space)
// under a registry policy (memoised, see Run).
func (r *Runner) RunMT(name string, threads int, id PolicyID) (cmp.Results, error) {
	return r.Run(Spec{Kind: KindMT, Profile: name, Threads: threads, Policy: id})
}

// AloneCPI returns benchmark id's CPI when running alone on a single-core
// baseline machine of the configured geometry. The underlying simulation is
// memoised: every figure that normalises against the same benchmark shares
// one run, even when they request it concurrently. The run bypasses the
// Cores widening — "alone" means one core no matter how wide the mixes are.
func (r *Runner) AloneCPI(id int) (float64, error) {
	res, err := r.Run(Spec{Mix: []int{id}, Policy: PBaseline})
	if err != nil {
		return 0, err
	}
	return res.Cores[0].CPI(), nil
}

// AloneCPIs resolves alone CPIs for a whole mix, fanning the uncached
// calibration runs out on the worker pool. The mix is widened to the
// configured core count first, so the result aligns slot-for-slot with the
// Cores returned by RunMix for the same mix.
func (r *Runner) AloneCPIs(mix []int) ([]float64, error) {
	mix = r.Cfg.extend(mix)
	out := make([]float64, len(mix))
	err := ForEach(len(mix), func(i int) error {
		cpi, err := r.AloneCPI(mix[i])
		out[i] = cpi
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
