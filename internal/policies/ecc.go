package policies

import (
	"ascc/internal/coop"
	"ascc/internal/rng"
	"ascc/internal/ssl"
)

// ECC is Elastic Cooperative Caching (Herrero, González, Canal — ISCA'10)
// as the paper implements it for comparison (§6): each private LLC is split
// into a private region (local demand fills) and a shared region (guests
// spilled by peers); the split is re-evaluated periodically from the
// cache's recent miss rate, and evictions from the private region are
// spilled — via a Spill Allocator — to the peer currently offering the most
// shared space.
//
// Simplifications relative to the original (documented in DESIGN.md): the
// repartitioning signal is the epoch miss rate with hysteresis thresholds
// rather than the original's per-region reuse counters, and the shared
// state of lines is tracked exactly (per the paper: "we have implemented it
// without the distributed structures they propose, tracking the shared
// state of the lines with an additional bit per block", which is what the
// Spilled flag provides).
//
// The other hooks keep coop.Base's defaults: demand fills and guests both
// enter at MRU, a guest evicted from a shared region goes to memory (no
// re-spill, as in the original design), any private-region eviction spills
// (no reuse filter), and there is no swap.
type ECC struct {
	coop.Base
	caches int
	sets   int
	assoc  int

	priv []int // private ways per cache, in [1, assoc-1]

	// Epoch counters per cache.
	accesses []uint64
	misses   []uint64

	period  uint64
	hiMiss  float64 // grow the private region above this epoch miss rate
	loMiss  float64 // shrink it below this
	r       *rng.Xoshiro256
	cand    []int
	allowFn [][]func(int) bool // memoised per cache: [0] demand, [1] spill
}

// NewECC builds the ECC comparison policy. The repartition period and
// thresholds follow the defaults discussed in DESIGN.md.
func NewECC(caches, sets, assoc int, seed uint64) *ECC {
	p := &ECC{
		caches:   caches,
		sets:     sets,
		assoc:    assoc,
		priv:     make([]int, caches),
		accesses: make([]uint64, caches),
		misses:   make([]uint64, caches),
		period:   50000,
		hiMiss:   0.05,
		loMiss:   0.02,
		r:        rng.New(rng.Mix64(seed ^ 0xecc)),
		cand:     make([]int, 0, caches),
	}
	for i := range p.priv {
		p.priv[i] = assoc / 2 // start balanced
	}
	p.allowFn = make([][]func(int) bool, caches)
	for c := 0; c < caches; c++ {
		c := c
		p.allowFn[c] = []func(int) bool{
			func(w int) bool { return w < p.priv[c] },  // demand: private region
			func(w int) bool { return w >= p.priv[c] }, // spill: shared region
		}
	}
	return p
}

// Name implements coop.Policy.
func (p *ECC) Name() string { return "ECC" }

// OnL2Access implements coop.Policy.
func (p *ECC) OnL2Access(c, set int, hit bool) {
	p.accesses[c]++
	if !hit {
		p.misses[c]++
	}
}

// Role implements coop.Policy: ECC always spills private-region evictions;
// whether a spill succeeds depends on peers' shared space.
func (p *ECC) Role(c, set int) ssl.Role { return ssl.Spiller }

// Receivers implements coop.Policy: the Spill Allocator orders peers by
// descending shared-region size (ties broken by a random rotation).
func (p *ECC) Receivers(c, set int) []int {
	p.cand = p.cand[:0]
	for r := 0; r < p.caches; r++ {
		if r != c && p.assoc-p.priv[r] > 0 {
			p.cand = append(p.cand, r)
		}
	}
	if len(p.cand) > 1 {
		if rot := p.r.Intn(len(p.cand)); rot > 0 {
			rotateInts(p.cand, rot)
		}
		for i := 1; i < len(p.cand); i++ {
			for j := i; j > 0 && p.priv[p.cand[j]] < p.priv[p.cand[j-1]]; j-- {
				p.cand[j], p.cand[j-1] = p.cand[j-1], p.cand[j]
			}
		}
	}
	return p.cand
}

// DemandVictimAllow implements coop.Policy: demand fills replace within the
// private region.
func (p *ECC) DemandVictimAllow(c, set int) func(int) bool { return p.allowFn[c][0] }

// SpillVictimAllow implements coop.Policy: guests replace within the shared
// region.
func (p *ECC) SpillVictimAllow(c, set int) func(int) bool { return p.allowFn[c][1] }

// GuestVictim implements coop.Policy: guests are confined to the shared
// region.
func (p *ECC) GuestVictim() coop.GuestVictimMode { return coop.GuestRegion }

// Tick implements coop.Policy: epoch repartitioning.
func (p *ECC) Tick(c int, accesses uint64) {
	if accesses%p.period != 0 {
		return
	}
	if p.accesses[c] > 0 {
		rate := float64(p.misses[c]) / float64(p.accesses[c])
		switch {
		case rate > p.hiMiss && p.priv[c] < p.assoc-1:
			p.priv[c]++
		case rate < p.loMiss && p.priv[c] > 1:
			p.priv[c]--
		}
	}
	p.accesses[c] = 0
	p.misses[c] = 0
}
