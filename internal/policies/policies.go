// Package policies implements every last-level-cache management design the
// paper evaluates, behind the coop.Policy interface:
//
//   - Baseline: plain private LRU LLCs, no cooperation (the paper's
//     reference configuration).
//   - CC: Cooperative Caching (Chang & Sohi, ISCA'06) — always spill
//     last-copy victims to a random peer, one forwarding chance.
//   - DSR: Dynamic Spill-Receive (Qureshi, HPCA'09) with set-dueling
//     monitors, its DSR+DIP combination, and the DSR-3S ablation of Fig. 5.
//   - ECC: Elastic Cooperative Caching (Herrero et al., ISCA'10),
//     simplified as described in the paper's §6.
//   - The ASCC family: the paper's contribution and all its internal
//     ablations (LRS, LMS, GMS, LMS+BIP, GMS+SABIP, ASCC-2S, fixed
//     granularities), plus AVGCC (dynamic granularity) and the QoS-aware
//     AVGCC of §8.
package policies

import (
	"ascc/internal/coop"
	"ascc/internal/rng"
	"ascc/internal/ssl"
)

// Baseline is the non-cooperative private-LLC configuration: LRU with MRU
// insertion, no spilling.
type Baseline struct {
	coop.Base
}

// NewBaseline returns the baseline policy.
func NewBaseline() *Baseline { return &Baseline{} }

// Name implements coop.Policy.
func (*Baseline) Name() string { return "baseline" }

// CC is Cooperative Caching: every last-copy victim is spilled to a
// randomly chosen peer, regardless of whether that helps (§2: "CC
// disregards whether the spilling is going to benefit the cache"), with
// one-chance forwarding (a spilled line is not re-spilled).
type CC struct {
	coop.Base
	caches int
	r      *rng.Xoshiro256
	recv   [1]int
}

// NewCC builds Cooperative Caching for the given number of private LLCs.
func NewCC(caches int, seed uint64) *CC {
	return &CC{caches: caches, r: rng.New(seed)}
}

// Name implements coop.Policy.
func (*CC) Name() string { return "CC" }

// Role implements coop.Policy: every set always spills.
func (*CC) Role(c, set int) ssl.Role { return ssl.Spiller }

// Receivers implements coop.Policy: one random peer (CC does not retry).
func (p *CC) Receivers(c, set int) []int {
	if p.caches < 2 {
		return nil
	}
	r := p.r.Intn(p.caches - 1)
	if r >= c {
		r++
	}
	p.recv[0] = r
	return p.recv[:1]
}
