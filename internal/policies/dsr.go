package policies

import (
	"ascc/internal/cachesim"
	"ascc/internal/coop"
	"ascc/internal/rng"
	"ascc/internal/ssl"
)

// DSRConfig parameterises Dynamic Spill-Receive (Qureshi, HPCA'09) as the
// paper evaluates it: 32 sets per Set Dueling Monitor, one SDM per policy,
// a 10-bit PSEL per cache, plus the DSR-3S ablation (Fig. 5) and the
// DSR+DIP combination (§6).
type DSRConfig struct {
	Caches int
	Sets   int
	Assoc  int

	// SDMSets is the number of sampling sets per monitor (paper: 32).
	SDMSets int
	// PSELBits sizes the per-cache selector counter (10 bits).
	PSELBits int
	// ThreeState uses the two PSEL MSBs to add a neutral state (DSR-3S).
	ThreeState bool
	// DIP adds per-cache LRU/BIP insertion dueling (DSR+DIP).
	DIP bool
	// Epsilon is BIP's MRU-insertion probability (1/32).
	Epsilon float64

	Seed uint64
}

// DSR implements Dynamic Spill-Receive and its variants.
//
// Monitor layout: with stride = Sets/SDMSets, sets ≡ 0 (mod stride) always
// act as spillers, sets ≡ 1 always act as receivers; under DIP, sets ≡ 2
// always insert at MRU and sets ≡ 3 always use BIP. All other sets follow
// the per-cache PSEL decisions.
//
// The remaining hooks keep coop.Base's defaults: DSR has no capacity
// response to a failed spill and no periodic work; it spills any last copy
// into the receiver's plain LRU victim, at MRU; the §3.2 swap is an ASCC
// feature; and re-spills are forbidden, since a receiver cache never spills
// while roles are stable and forbidding them prevents circulation during
// role flips.
type DSR struct {
	coop.Base
	cfg     DSRConfig
	stride  int
	psel    []int // spill/receive selector, one per cache
	pselMax int
	dipsel  []int // insertion selector, one per cache (DIP only)
	r       *rng.Xoshiro256
	cand    []int
}

// NewDSR builds the paper's DSR configuration (32 sets per SDM, one SDM
// per policy). The PSEL is 8 bits rather than the traditional 10 so its
// learning time constant matches the scaled run lengths (DESIGN.md §5).
func NewDSR(caches, sets, assoc int, seed uint64) *DSR {
	return NewDSRVariant(DSRConfig{
		Caches: caches, Sets: sets, Assoc: assoc,
		SDMSets: 32, PSELBits: 8, Epsilon: 1.0 / 32.0, Seed: seed,
	})
}

// NewDSRDIP builds DSR+DIP (§6): DSR with per-cache DIP insertion dueling.
func NewDSRDIP(caches, sets, assoc int, seed uint64) *DSR {
	return NewDSRVariant(DSRConfig{
		Caches: caches, Sets: sets, Assoc: assoc,
		SDMSets: 32, PSELBits: 8, DIP: true, Epsilon: 1.0 / 32.0, Seed: seed,
	})
}

// NewDSR3S builds the DSR-3S ablation of Fig. 5: the two PSEL MSBs select
// spiller (11), receiver (00) or neutral (01/10). The selector is 6 bits:
// reaching the outer quartiles needs a net drift of a quarter of the range,
// so the band thresholds must be reachable within scaled run lengths
// (DESIGN.md §5).
func NewDSR3S(caches, sets, assoc int, seed uint64) *DSR {
	return NewDSRVariant(DSRConfig{
		Caches: caches, Sets: sets, Assoc: assoc,
		SDMSets: 32, PSELBits: 6, ThreeState: true, Epsilon: 1.0 / 32.0, Seed: seed,
	})
}

// NewDSRVariant builds an arbitrary DSR configuration.
func NewDSRVariant(cfg DSRConfig) *DSR {
	if cfg.SDMSets <= 0 {
		cfg.SDMSets = 32
	}
	if cfg.PSELBits <= 0 {
		cfg.PSELBits = 10
	}
	stride := cfg.Sets / cfg.SDMSets
	if stride < 4 {
		stride = 4 // keep the four monitor classes distinct in tiny caches
	}
	p := &DSR{
		cfg:     cfg,
		stride:  stride,
		psel:    make([]int, cfg.Caches),
		pselMax: 1<<cfg.PSELBits - 1,
		dipsel:  make([]int, cfg.Caches),
		r:       rng.New(rng.Mix64(cfg.Seed ^ 0xd52)),
		cand:    make([]int, 0, cfg.Caches),
	}
	for i := range p.psel {
		// Start exactly at the comparison threshold so followers begin in
		// the passive state (receive, MRU insertion) until evidence arrives.
		p.psel[i] = p.pselMax / 2
		p.dipsel[i] = p.pselMax / 2
	}
	return p
}

// Name implements coop.Policy.
func (p *DSR) Name() string {
	switch {
	case p.cfg.ThreeState:
		return "DSR-3S"
	case p.cfg.DIP:
		return "DSR+DIP"
	default:
		return "DSR"
	}
}

// monitor classes for a set.
const (
	monFollower = iota
	monSpill
	monReceive
	monMRU
	monBIP
)

func (p *DSR) monitorClass(set int) int {
	switch set % p.stride {
	case 0:
		return monSpill
	case 1:
		return monReceive
	case 2:
		if p.cfg.DIP {
			return monMRU
		}
	case 3:
		if p.cfg.DIP {
			return monBIP
		}
	}
	return monFollower
}

// OnL2Access implements coop.Policy: misses in the monitor sets steer the
// per-cache selectors. A miss in an always-spill set is evidence the
// spiller behaviour works poorly locally relative to the always-receive
// sets, and vice versa; the follower sets adopt whichever monitor misses
// less. DIP's insertion selector works the same way over its own monitors.
func (p *DSR) OnL2Access(c, set int, hit bool) {
	if hit {
		return
	}
	switch p.monitorClass(set) {
	case monSpill:
		if p.psel[c] > 0 {
			p.psel[c]--
		}
	case monReceive:
		if p.psel[c] < p.pselMax {
			p.psel[c]++
		}
	case monMRU:
		if p.dipsel[c] < p.pselMax {
			p.dipsel[c]++
		}
	case monBIP:
		if p.dipsel[c] > 0 {
			p.dipsel[c]--
		}
	}
}

// cacheRole is the whole-cache follower decision.
func (p *DSR) cacheRole(c int) ssl.Role {
	if p.cfg.ThreeState {
		// Two MSBs: 11 spiller, 00 receiver, else neutral.
		msbs := p.psel[c] >> (p.cfg.PSELBits - 2)
		switch msbs {
		case 3:
			return ssl.Spiller
		case 0:
			return ssl.Receiver
		default:
			return ssl.Neutral
		}
	}
	// Receiver sets missing more than spiller sets => PSEL high => being a
	// receiver hurts: act as a spiller.
	if p.psel[c] > p.pselMax/2 {
		return ssl.Spiller
	}
	return ssl.Receiver
}

// Role implements coop.Policy: monitor sets have fixed roles; followers use
// the per-cache PSEL decision.
func (p *DSR) Role(c, set int) ssl.Role {
	switch p.monitorClass(set) {
	case monSpill:
		return ssl.Spiller
	case monReceive:
		return ssl.Receiver
	}
	return p.cacheRole(c)
}

// Receivers implements coop.Policy: the caches whose same-index set
// currently receives, in random order.
func (p *DSR) Receivers(c, set int) []int {
	p.cand = p.cand[:0]
	for r := 0; r < p.cfg.Caches; r++ {
		if r != c && p.Role(r, set) == ssl.Receiver {
			p.cand = append(p.cand, r)
		}
	}
	if len(p.cand) > 1 {
		if rot := p.r.Intn(len(p.cand)); rot > 0 {
			rotateInts(p.cand, rot)
		}
	}
	return p.cand
}

// InsertPos implements coop.Policy: MRU unless DIP selects BIP for this
// cache (or the set is a BIP monitor).
func (p *DSR) InsertPos(c, set int) cachesim.InsertPos {
	if !p.cfg.DIP {
		return cachesim.InsertMRU
	}
	bip := false
	switch p.monitorClass(set) {
	case monMRU:
		bip = false
	case monBIP:
		bip = true
	default:
		// MRU monitor missing more => dipsel high => use BIP.
		bip = p.dipsel[c] > p.pselMax/2
	}
	if !bip {
		return cachesim.InsertMRU
	}
	if p.r.Bernoulli(p.cfg.Epsilon) {
		return cachesim.InsertMRU
	}
	return cachesim.InsertLRU
}
