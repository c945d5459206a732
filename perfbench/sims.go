package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"time"

	"ascc/internal/cmp"
	"ascc/internal/harness"
	"ascc/internal/rng"
	"ascc/internal/trace"
	"ascc/internal/workload"
)

// record is what the output gate keeps of one simulation: a digest of its
// complete results plus the per-core CPIs the accuracy metrics compare.
type record struct {
	Digest string    `json:"digest"`
	CPI    []float64 `json:"cpi"`   // per core; one aggregate CPI for a scaleout width
	Instr  uint64    `json:"instr"` // retired simulated instructions, warmup included
}

// resultsRecord digests every CoreStats field of every core (floats by
// their bits, so any change in any result bit changes the digest).
func resultsRecord(res cmp.Results, warmup uint64) record {
	h := sha256.New()
	h.Write([]byte(res.Policy))
	var buf [8]byte
	rec := record{CPI: make([]float64, len(res.Cores))}
	for i, c := range res.Cores {
		v := reflect.ValueOf(c)
		for f := 0; f < v.NumField(); f++ {
			switch fv := v.Field(f); fv.Kind() {
			case reflect.Uint64:
				binary.LittleEndian.PutUint64(buf[:], fv.Uint())
			case reflect.Float64:
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(fv.Float()))
			default:
				panic(fmt.Sprintf("perfbench: CoreStats field %s has unhandled kind %s", v.Type().Field(f).Name, fv.Kind()))
			}
			h.Write(buf[:])
		}
		rec.CPI[i] = c.CPI()
		rec.Instr += c.Instructions + warmup
	}
	rec.Digest = hex.EncodeToString(h.Sum(nil)[:8])
	return rec
}

// scaleoutRecord digests one scaleout width the way its table reports it:
// measured instructions, aggregate CPI (bits) and coherence probes. It is
// all the timed passes see of a width, because the scaleout experiment
// returns only its table; the constructor path of the traced run and pin
// mode also digests the width's complete results (simOutcome.full).
func scaleoutRecord(cores int, instr uint64, cpi float64, probes uint64, warmup uint64) record {
	h := sha256.New()
	var buf [32]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(cores))
	binary.LittleEndian.PutUint64(buf[8:], instr)
	binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(cpi))
	binary.LittleEndian.PutUint64(buf[24:], probes)
	h.Write(buf[:])
	return record{Digest: hex.EncodeToString(h.Sum(nil)[:8]), CPI: []float64{cpi}, Instr: instr + warmup*uint64(cores)}
}

// directRecord is scaleoutRecord computed from a system's full results,
// with the same float accumulation order as experiments.Scaleout.
func directRecord(res cmp.Results, probes uint64, warmup uint64) record {
	var instr uint64
	var cycles float64
	for _, cs := range res.Cores {
		instr += cs.Instructions
		cycles += cs.Cycles
	}
	return scaleoutRecord(len(res.Cores), instr, cycles/float64(instr), probes, warmup)
}

// streamKey is the arena cache/store key of one stream slot, the same
// string the harness derives (kind/slot/name/seed/scale), so arenas the
// set-up phase persists are the ones the timed phase loads.
func streamKey(kind string, slot int, name string, cfg harness.Config) string {
	return fmt.Sprintf("%s/%d/%s/%d/%d", kind, slot, name, cfg.Seed, cfg.Scale)
}

// sampledKey is the key of the set-sampled sub-arena filtered from parent.
func sampledKey(parent string, spec *trace.SampleSpec) string {
	return parent + "?sample=" + spec.String()
}

// cores returns the simulation's core count.
func (s sim) cores() int {
	if s.kind == "mt" {
		return mtThreads
	}
	return len(s.mix)
}

// mtThreads is the thread count of the multithreaded study.
const mtThreads = 4

// generators builds the simulation's live workload generators and core
// timings through the public workload constructors, exactly as the harness
// does before it swaps each generator for an arena replayer.
func (s sim) generators() ([]trace.Generator, []cmp.CoreTiming, error) {
	switch s.kind {
	case "mix":
		gens, profs, err := workload.BuildMix(s.mix, s.cfg.Seed, s.cfg.Scale)
		if err != nil {
			return nil, nil, err
		}
		timing := make([]cmp.CoreTiming, len(profs))
		for i, p := range profs {
			timing[i] = cmp.CoreTiming{BaseCPI: p.BaseCPI, Overlap: p.Overlap}
		}
		return gens, timing, nil
	case "mt":
		prof, err := workload.MTProfileByName(s.mt)
		if err != nil {
			return nil, nil, err
		}
		timing := make([]cmp.CoreTiming, mtThreads)
		for i := range timing {
			timing[i] = cmp.CoreTiming{BaseCPI: prof.BaseCPI, Overlap: prof.Overlap}
		}
		return prof.NewGenerators(mtThreads, rng.Mix64(s.cfg.Seed^0x317), s.cfg.Scale), timing, nil
	}
	return nil, nil, fmt.Errorf("sim %s: unknown kind %q", s.name, s.kind)
}

// genShim counts and times the references a simulation pulls through the
// trace.Generator interface cmp.New accepts.
type genShim struct {
	g     trace.Generator
	key   string // parent stream key
	refs  uint64
	ns    int64
	first *atomic.Int64 // the owning simulation's first-NextBatch time
}

func (g *genShim) Name() string { return g.g.Name() }

func (g *genShim) Next() trace.Ref {
	g.refs++
	return g.g.Next()
}

func (g *genShim) NextBatch(buf []trace.Ref) {
	t := time.Now()
	if g.first.Load() == 0 {
		g.first.CompareAndSwap(0, t.UnixNano())
	}
	g.g.NextBatch(buf)
	g.ns += int64(time.Since(t))
	g.refs += uint64(len(buf))
}

// simOutcome is one instrumented simulation.
type simOutcome struct {
	rec        record
	full       string // scaleout widths: digest of the complete results (rec is the table's)
	res        cmp.Results
	probes     uint64
	runNs      int64 // inside System.Run
	allocs     uint64
	newPolNs   int64 // inside harness.NewPolicy
	dispatchNs int64 // request -> first NextBatch, less the wait for a worker slot
	gens       []*genShim
	pol        *policyShim
}

// runner builds simulations from the public constructors of each layer —
// workload generators, ArenaCache replayers (over a persistent store when
// the cache has one), harness.NewPolicy and cmp.New — so it can wrap the
// two interfaces cmp.New accepts in counting shims.
type runner struct {
	cache   *trace.ArenaCache
	workers int
	// recordHooks, when non-empty, names the one simulation whose policy
	// hook sequence is recorded for the policy microbenchmark.
	recordHooks string
	// countAllocs counts heap allocations inside System.Run. The count is
	// process-wide, so it also makes the runner build and run one
	// simulation at a time.
	countAllocs bool
}

// run executes every simulation and returns the outcomes in input order.
// It schedules them as the experiments do: every simulation is requested at
// once and built by its requester, and only System.Run holds one of the
// r.workers slots — except the scaleout widths, which the experiment
// builds and runs one after another.
func (r *runner) run(sims []sim) ([]simOutcome, error) {
	out := make([]simOutcome, len(sims))
	if sims[0].direct || r.countAllocs {
		for i, s := range sims {
			var err error
			if out[i], err = r.one(s, nil); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	sem := make(chan struct{}, r.workers)
	err := harness.ForEach(len(sims), func(i int) error {
		o, err := r.one(sims[i], sem)
		out[i] = o
		return err
	})
	return out, err
}

// one builds a single simulation, then runs it holding a slot of sem (nil:
// no pool).
func (r *runner) one(s sim, sem chan struct{}) (simOutcome, error) {
	start := time.Now()
	var first atomic.Int64
	live, timing, err := s.generators()
	if err != nil {
		return simOutcome{}, err
	}
	p := s.cfg.Params(s.cores())
	spec, err := p.SampleSpec()
	if err != nil {
		return simOutcome{}, err
	}
	shims := make([]*genShim, len(live))
	gens := make([]trace.Generator, len(live))
	for i, g := range live {
		key := streamKey(s.kind, i, g.Name(), s.cfg)
		a := r.cache.Get(key, g)
		var src trace.Generator = a.NewReplayer()
		if spec != nil {
			src = r.cache.Get(sampledKey(key, spec), spec.View(a.NewReplayer())).NewReplayer()
		}
		shims[i] = &genShim{g: src, key: key, first: &first}
		gens[i] = shims[i]
	}
	sets, ways := s.cfg.L2Geometry()
	t := time.Now()
	pol, err := harness.NewPolicy(s.policy, s.cores(), sets, ways, s.cfg.Seed, s.cfg.ResizePeriod())
	newPolNs := int64(time.Since(t))
	if err != nil {
		return simOutcome{}, err
	}
	ps := &policyShim{p: pol}
	if s.name == r.recordHooks {
		ps.rec = &hookRecorder{}
	}
	sys, err := cmp.New(p, gens, timing, ps)
	if err != nil {
		return simOutcome{}, err
	}
	var wait time.Duration
	if sem != nil {
		t = time.Now()
		sem <- struct{}{}
		defer func() { <-sem }()
		wait = time.Since(t)
	}
	var m0 uint64
	if r.countAllocs {
		m0 = mallocs()
	}
	t = time.Now()
	raw := sys.Run(s.cfg.WarmupInstr, s.cfg.MeasureInstr)
	runNs := int64(time.Since(t))
	var allocs uint64
	if r.countAllocs {
		allocs = mallocs() - m0
	}
	res := sys.ScaleSampled(raw)
	o := simOutcome{
		res:        res,
		probes:     sys.CoherenceProbes(),
		runNs:      runNs,
		allocs:     allocs,
		newPolNs:   newPolNs,
		dispatchNs: first.Load() - start.UnixNano() - int64(wait),
		gens:       shims,
		pol:        ps,
	}
	o.rec = resultsRecord(res, s.cfg.WarmupInstr)
	if s.direct {
		o.full = o.rec.Digest
		o.rec = directRecord(res, o.probes, s.cfg.WarmupInstr)
	}
	return o, nil
}

// streamNeeds returns, per parent stream key, the most references any
// simulation pulled from that stream (or from its sampled sub-arena).
func streamNeeds(outs []simOutcome) map[string]uint64 {
	need := map[string]uint64{}
	for _, o := range outs {
		for _, g := range o.gens {
			if g.refs > need[g.key] {
				need[g.key] = g.refs
			}
		}
	}
	return need
}

// records maps simulation name to record.
func records(sims []sim, outs []simOutcome) map[string]record {
	m := make(map[string]record, len(sims))
	for i, s := range sims {
		m[s.name] = outs[i].rec
	}
	return m
}
