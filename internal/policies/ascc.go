package policies

import (
	"fmt"

	"ascc/internal/cachesim"
	"ascc/internal/coop"
	"ascc/internal/rng"
	"ascc/internal/ssl"
)

// SpillPlacement selects the recency position of incoming guest lines.
type SpillPlacement int

const (
	// SpillByReuse (the default) places a guest by the locality it
	// demonstrated at home: a victim that was reused during its previous
	// residence enters at MRU (it is part of a live working set being
	// migrated), while a never-reused victim enters at LRU-1 — it is
	// speculative, so it may only ratchet up an idle set gradually and
	// cannot displace a busy host's live lines. The paper does not pin
	// this detail down; the reuse bit is the same one that gates guest
	// admission (dead-line victims), so no extra state is needed.
	SpillByReuse SpillPlacement = iota
	// SpillLRU1 always inserts guests at the second-to-bottom position.
	SpillLRU1
	// SpillMRU always inserts guests at the top of the recency stack.
	SpillMRU
	// SpillLRU always inserts guests at the bottom.
	SpillLRU
)

// String names the placement.
func (s SpillPlacement) String() string {
	switch s {
	case SpillByReuse:
		return "by-reuse"
	case SpillLRU1:
		return "LRU-1"
	case SpillMRU:
		return "MRU"
	case SpillLRU:
		return "LRU"
	}
	return fmt.Sprintf("SpillPlacement(%d)", int(s))
}

// CapacityMode selects the insertion policy a spiller set adopts when it
// cannot find a receiver (the paper's §3.2 capacity mechanism).
type CapacityMode int

const (
	// CapacityNone leaves insertion at MRU always (the LRS/LMS/GMS
	// ablations of Fig. 4).
	CapacityNone CapacityMode = iota
	// CapacityBIP switches the set to plain BIP (most fills at LRU).
	CapacityBIP
	// CapacitySABIP switches the set to Spilling-Aware BIP (most fills at
	// LRU-1), the paper's design.
	CapacitySABIP
)

// String names the capacity mode.
func (m CapacityMode) String() string {
	switch m {
	case CapacityNone:
		return "none"
	case CapacityBIP:
		return "BIP"
	case CapacitySABIP:
		return "SABIP"
	}
	return fmt.Sprintf("CapacityMode(%d)", int(m))
}

// ASCCConfig parameterises the whole ASCC design space: the published ASCC
// and AVGCC, every ablation of Figures 4 and 5, the granularity sweep of
// Table 1, the limited-counter variants of §7 and the QoS extension of §8
// are all points in this space (see the constructors below).
type ASCCConfig struct {
	Caches int // private LLCs in the CMP
	Sets   int // sets per LLC
	Assoc  int // K

	// Granularity is the initial log2(sets per counter): 0 is the per-set
	// ASCC, log2(Sets) is the single-counter GMS/ASCC1.
	Granularity int

	// Dynamic enables AVGCC: the granularity is re-evaluated every
	// ResizePeriod accesses using the A/B/D counter mechanism.
	Dynamic      bool
	ResizePeriod uint64

	// MaxCounters caps the number of counters in use (§7 storage-reduction
	// experiments); 0 means no cap.
	MaxCounters int

	// TwoState removes the neutral state (ASCC-2S, Fig. 5): spiller when
	// SSL >= K, receiver otherwise.
	TwoState bool

	// RandomReceiver picks any candidate with SSL < K at random (the LRS
	// ablation) instead of the minimum-SSL candidate (LMS/ASCC).
	RandomReceiver bool

	// Capacity selects the no-receiver insertion response (§3.2).
	Capacity CapacityMode

	// Epsilon is BIP/SABIP's probability of inserting at MRU (paper: 1/32).
	Epsilon float64

	// Swap enables the §3.2 last-copy swap on remote hits.
	Swap bool

	// SpillPlacement selects where an incoming guest line lands in the
	// receiver set's recency stack (default SpillByReuse — see its doc).
	SpillPlacement SpillPlacement

	// SpillAnyVictim disables the reuse filter on spill victims: when
	// false (the default), only victims that were reused during their
	// residence are spilled; unreused victims take the capacity (SABIP)
	// path. See coop.Policy.SpillRequiresReuse.
	SpillAnyVictim bool

	// SSLMax overrides the saturation-counter ceiling (0 = the paper's
	// 2K-1). The paper's future work proposes tuning this limit.
	SSLMax int

	// EWMA replaces the saturating counters with an exponentially weighted
	// miss-ratio average — the paper's "exploring other metrics" future
	// work. It tracks each set alone: set grouping (Granularity > 0),
	// dynamic granularity (AVGCC) and QoS are SSL-only features.
	EWMA bool

	// QoS enables the §8 Quality-of-Service extension: the SSL miss
	// increment is scaled by QoSRatio, recomputed every ResizePeriod
	// accesses from the sampled-set estimate of baseline misses.
	QoS bool

	Seed uint64
}

// ASCC is the paper's Adaptive Set-Granular Cooperative Caching and, with
// Dynamic set, the Adaptive Variable-Granularity variant (AVGCC). Demand
// fills and spills carry no way filter (coop.Base's nil victim filters);
// guests still displace only dead lines (GuestVictim).
type ASCC struct {
	coop.Base
	cfg   ASCCConfig
	name  string
	banks []*ssl.Bank
	r     *rng.Xoshiro256

	// candidate scratch buffer for receiver selection.
	cand []int

	// ewma is the alternative metric's state (nil for the SSL design).
	ewma []*ssl.EWMABank

	// QoS state, per cache and per period (§8).
	missesWith    []uint64
	sampledMisses []uint64
	sampledSeen   [][]bool
	sampledCount  []int
}

// Published returns the configuration of a fixed-granularity design of
// Figs. 4-5 by name — "ASCC", "ASCC-2S", "LRS", "LMS", "GMS", "LMS+BIP" or
// "GMS+SABIP" — for the given machine; ok is false for any other name.
// (AVGCC and its QoS extension start from AVGCCDefaultConfig.)
func Published(name string, caches, sets, assoc int, seed uint64) (cfg ASCCConfig, ok bool) {
	cfg = ASCCConfig{
		Caches: caches, Sets: sets, Assoc: assoc,
		Capacity: CapacitySABIP, Epsilon: 1.0 / 32.0, Swap: true, Seed: seed,
	}
	// LRS, LMS and GMS leave insertion unchanged, so they carry no epsilon.
	switch name {
	case "ASCC": // per-set counters, minimum-SSL receiver, SABIP, swapping
	case "ASCC-2S": // no neutral state (Fig. 5)
		cfg.TwoState = true
	case "LRS": // random receiver among SSL<K candidates (Fig. 4)
		cfg.RandomReceiver, cfg.Capacity, cfg.Epsilon = true, CapacityNone, 0
	case "LMS": // minimum-SSL receiver, no insertion change
		cfg.Capacity, cfg.Epsilon = CapacityNone, 0
	case "GMS": // a single counter per cache
		cfg.Granularity, cfg.Capacity, cfg.Epsilon = log2int(sets), CapacityNone, 0
	case "LMS+BIP": // LMS with the plain-BIP capacity response
		cfg.Capacity = CapacityBIP
	case "GMS+SABIP": // one counter per cache with the SABIP response
		cfg.Granularity = log2int(sets)
	default:
		return ASCCConfig{}, false
	}
	return cfg, true
}

// AVGCCDefaultConfig returns the published AVGCC configuration; callers can
// adjust ResizePeriod (scaled runs) or QoS before NewASCCVariant.
func AVGCCDefaultConfig(caches, sets, assoc int, seed uint64) ASCCConfig {
	return ASCCConfig{
		Caches: caches, Sets: sets, Assoc: assoc,
		Granularity:  log2int(sets),
		Dynamic:      true,
		ResizePeriod: 100000,
		Capacity:     CapacitySABIP, Epsilon: 1.0 / 32.0, Swap: true, Seed: seed,
	}
}

// NewASCCVariant builds an arbitrary point of the design space under the
// given display name.
func NewASCCVariant(name string, cfg ASCCConfig) *ASCC {
	if cfg.Caches <= 0 || cfg.Sets <= 0 || cfg.Assoc <= 0 {
		panic(fmt.Sprintf("policies: bad ASCC geometry %+v", cfg))
	}
	if cfg.ResizePeriod == 0 {
		cfg.ResizePeriod = 100000
	}
	if cfg.EWMA && (cfg.Granularity > 0 || cfg.Dynamic || cfg.QoS) {
		panic("policies: EWMA metric does not support set grouping, dynamic granularity or QoS")
	}
	p := &ASCC{
		cfg:   cfg,
		name:  name,
		banks: make([]*ssl.Bank, cfg.Caches),
		r:     rng.New(rng.Mix64(cfg.Seed ^ 0xa5cc)),
		cand:  make([]int, 0, cfg.Caches),
	}
	sslMax := cfg.SSLMax
	if sslMax == 0 {
		sslMax = 2*cfg.Assoc - 1
	}
	for i := range p.banks {
		b := ssl.NewBankMax(cfg.Sets, cfg.Assoc, sslMax)
		if cfg.MaxCounters > 0 {
			b.LimitCounters(cfg.MaxCounters)
		}
		if cfg.Granularity > 0 {
			b.SetGranularity(cfg.Granularity)
		}
		p.banks[i] = b
	}
	if cfg.EWMA {
		p.ewma = make([]*ssl.EWMABank, cfg.Caches)
		for i := range p.ewma {
			p.ewma[i] = ssl.NewEWMABank(cfg.Sets)
		}
	}
	if cfg.QoS {
		p.missesWith = make([]uint64, cfg.Caches)
		p.sampledMisses = make([]uint64, cfg.Caches)
		p.sampledCount = make([]int, cfg.Caches)
		p.sampledSeen = make([][]bool, cfg.Caches)
		for i := range p.sampledSeen {
			p.sampledSeen[i] = make([]bool, cfg.Sets)
		}
	}
	return p
}

func log2int(n int) int {
	d := 0
	for n > 1 {
		n >>= 1
		d++
	}
	return d
}

// Name implements coop.Policy.
func (p *ASCC) Name() string { return p.name }

// Bank exposes cache c's counter bank (tests, harness introspection).
func (p *ASCC) Bank(c int) *ssl.Bank { return p.banks[c] }

// OnL2Access implements coop.Policy: train the SSL, revert a BIP-mode set
// to MRU insertion once its saturation falls below K, and feed the QoS
// estimators.
func (p *ASCC) OnL2Access(c, set int, hit bool) {
	if p.ewma != nil {
		p.ewma[c].Observe(set, hit)
		b := p.banks[c] // still holds the per-set insertion-policy bits
		if p.cfg.Capacity != CapacityNone && b.BIPMode(set) && p.ewma[c].Role(set) == ssl.Receiver {
			b.SetBIPMode(set, false)
		}
		return
	}
	b := p.banks[c]
	if p.cfg.QoS && !hit {
		p.missesWith[c]++
		// The baseline-miss estimator samples sets that insert at MRU and
		// cannot receive (SSL > K-1): those behave like the baseline.
		if !b.BIPMode(set) && b.Value(set) > p.cfg.Assoc-1 {
			p.sampledMisses[c]++
			if !p.sampledSeen[c][set] {
				p.sampledSeen[c][set] = true
				p.sampledCount[c]++
			}
		}
	}
	if hit {
		b.OnHit(set)
	} else {
		b.OnMiss(set)
	}
	if p.cfg.Capacity != CapacityNone && b.BIPMode(set) && b.Value(set) < p.cfg.Assoc {
		// Capacity pressure has disappeared: back to MRU insertion (§3.2).
		b.SetBIPMode(set, false)
	}
}

// Role implements coop.Policy.
func (p *ASCC) Role(c, set int) ssl.Role {
	if p.ewma != nil {
		return p.ewma[c].Role(set)
	}
	if p.cfg.TwoState {
		return p.banks[c].RoleTwoState(set)
	}
	return p.banks[c].Role(set)
}

// value returns the receiver-ordering key for (c, set) under the active
// metric.
func (p *ASCC) value(c, set int) int {
	if p.ewma != nil {
		return p.ewma[c].Value(set, p.cfg.Assoc)
	}
	return p.banks[c].Value(set)
}

// Receivers implements coop.Policy: the peer caches whose same-index set
// has SSL < K, ordered by ascending SSL (the paper prefers the lowest
// value; ties are broken randomly by a random rotation before the stable
// sort). Under the LRS ablation the order is random instead.
func (p *ASCC) Receivers(c, set int) []int {
	p.cand = p.cand[:0]
	for r := 0; r < p.cfg.Caches; r++ {
		if r != c && p.Role(r, set) == ssl.Receiver {
			p.cand = append(p.cand, r)
		}
	}
	if len(p.cand) < 2 {
		return p.cand
	}
	// Random rotation breaks ties fairly without allocations.
	if rot := p.r.Intn(len(p.cand)); rot > 0 {
		rotateInts(p.cand, rot)
	}
	if !p.cfg.RandomReceiver {
		// Stable insertion sort by SSL keeps the rotated order among ties.
		for i := 1; i < len(p.cand); i++ {
			for j := i; j > 0 && p.value(p.cand[j], set) < p.value(p.cand[j-1], set); j-- {
				p.cand[j], p.cand[j-1] = p.cand[j-1], p.cand[j]
			}
		}
	}
	return p.cand
}

// rotateInts rotates s left by k positions (k in [0, len(s))).
func rotateInts(s []int, k int) {
	reverseInts(s[:k])
	reverseInts(s[k:])
	reverseInts(s)
}

func reverseInts(s []int) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// OnSpillFail implements coop.Policy: a spiller set with no receiver
// indicates a global capacity problem, so the set switches to BIP/SABIP.
func (p *ASCC) OnSpillFail(c, set int) {
	if p.cfg.Capacity != CapacityNone {
		p.banks[c].SetBIPMode(set, true)
	}
}

// InsertPos implements coop.Policy: MRU normally; in capacity (BIP) mode,
// insert at MRU with probability epsilon, else at LRU (BIP) or LRU-1
// (SABIP).
func (p *ASCC) InsertPos(c, set int) cachesim.InsertPos {
	if p.cfg.Capacity == CapacityNone || !p.banks[c].BIPMode(set) {
		return cachesim.InsertMRU
	}
	if p.r.Bernoulli(p.cfg.Epsilon) {
		return cachesim.InsertMRU
	}
	if p.cfg.Capacity == CapacityBIP {
		return cachesim.InsertLRU
	}
	return cachesim.InsertLRU1
}

// SpillInsertPos implements coop.Policy: guests are inserted at the
// position selected by cfg.SpillPlacement (see SpillByReuse for the
// default's rationale).
func (p *ASCC) SpillInsertPos(c, set int, guestReused bool) cachesim.InsertPos {
	switch p.cfg.SpillPlacement {
	case SpillMRU:
		return cachesim.InsertMRU
	case SpillLRU:
		return cachesim.InsertLRU
	case SpillLRU1:
		return cachesim.InsertLRU1
	default:
		if guestReused {
			return cachesim.InsertMRU
		}
		return cachesim.InsertLRU1
	}
}

// AllowRespill implements coop.Policy: the SSL conditions (spill only from
// saturated sets into low-SSL sets) already prevent inactive lines from
// bouncing, so re-spills are allowed as in the paper.
func (p *ASCC) AllowRespill() bool { return true }

// SpillRequiresReuse implements coop.Policy (see ASCCConfig.SpillAnyVictim).
func (p *ASCC) SpillRequiresReuse() bool { return !p.cfg.SpillAnyVictim }

// SwapEnabled implements coop.Policy.
func (p *ASCC) SwapEnabled() bool { return p.cfg.Swap }

// GuestVictim implements coop.Policy: guests may only displace dead lines
// (the line-level reading of the paper's "sets with underutilised lines").
func (p *ASCC) GuestVictim() coop.GuestVictimMode { return coop.GuestDeadLines }

// Tick implements coop.Policy: every ResizePeriod accesses the AVGCC
// granularity is re-evaluated and, for the QoS variant, the QoSRatio is
// recomputed (§4.1, §8). Static non-QoS variants have no periodic work, so
// they skip the division entirely.
func (p *ASCC) Tick(c int, accesses uint64) {
	if !p.cfg.Dynamic && !p.cfg.QoS {
		return
	}
	if accesses%p.cfg.ResizePeriod != 0 {
		return
	}
	if p.cfg.Dynamic {
		p.banks[c].Resize()
	}
	if p.cfg.QoS {
		p.recomputeQoS(c)
	}
}

// recomputeQoS implements Equations (1) and (2): estimate the baseline
// cache's misses from the sampled sets, derive QoSRatio in 1.3 fixed point,
// and reset the period state.
func (p *ASCC) recomputeQoS(c int) {
	ratio := 1.0
	var mbc float64
	if p.sampledCount[c] > 0 {
		// Only inhibit on actual evidence that the baseline would miss
		// less. With no sampled sets the baseline miss count is unknown and
		// the mechanism must not self-inhibit: a zero ratio would freeze
		// every SSL below K, which keeps any set from ever qualifying for
		// sampling again (a deadlock).
		mbc = float64(p.cfg.Sets) * float64(p.sampledMisses[c]) / float64(p.sampledCount[c])
		if m := float64(p.missesWith[c]); m > mbc {
			ratio = mbc / m
		}
	}
	p.banks[c].SetMissIncrement(int(ratio*float64(ssl.One) + 0.5))
	p.missesWith[c] = 0
	p.sampledMisses[c] = 0
	p.sampledCount[c] = 0
	for i := range p.sampledSeen[c] {
		p.sampledSeen[c][i] = false
	}
}
