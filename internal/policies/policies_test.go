package policies

import (
	"fmt"
	"testing"

	"ascc/internal/cachesim"
	"ascc/internal/ssl"
)

func TestBaselineIsInert(t *testing.T) {
	p := NewBaseline()
	if p.Name() != "baseline" {
		t.Fatalf("name %q", p.Name())
	}
	p.OnL2Access(0, 0, false)
	if p.Role(0, 0) != ssl.Neutral {
		t.Fatal("baseline set not neutral")
	}
	if len(p.Receivers(0, 0)) != 0 {
		t.Fatal("baseline chose a receiver")
	}
	if p.InsertPos(0, 0) != cachesim.InsertMRU {
		t.Fatal("baseline not MRU insertion")
	}
	if p.SwapEnabled() || p.AllowRespill() {
		t.Fatal("baseline has cooperative features on")
	}
	if p.DemandVictimAllow(0, 0) != nil || p.SpillVictimAllow(0, 0) != nil {
		t.Fatal("baseline restricts victims")
	}
}

func TestCCAlwaysSpillsRandomReceiver(t *testing.T) {
	p := NewCC(4, 1)
	if p.Name() != "CC" {
		t.Fatalf("name %q", p.Name())
	}
	if p.Role(2, 7) != ssl.Spiller {
		t.Fatal("CC set not a spiller")
	}
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		rs := p.Receivers(1, 0)
		if len(rs) != 1 {
			t.Fatalf("CC offered %v, want exactly one candidate", rs)
		}
		r := rs[0]
		if r == 1 || r < 0 || r > 3 {
			t.Fatalf("CC receiver %d invalid", r)
		}
		seen[r] = true
	}
	if len(seen) != 3 {
		t.Fatalf("CC only used receivers %v", seen)
	}
	if p.AllowRespill() {
		t.Fatal("CC must be one-chance forwarding")
	}
	// Single cache: no receiver.
	if len(NewCC(1, 1).Receivers(0, 0)) != 0 {
		t.Fatal("CC with one cache found a receiver")
	}
}

// published builds the named Published design the way harness.NewPolicy
// does: its configuration, then NewASCCVariant.
func published(t *testing.T, name string, caches, sets, assoc int, seed uint64) *ASCC {
	t.Helper()
	cfg, ok := Published(name, caches, sets, assoc, seed)
	if !ok {
		t.Fatalf("Published(%q) unknown", name)
	}
	return NewASCCVariant(name, cfg)
}

func drive(p *ASCC, c, set, misses, hits int) {
	for i := 0; i < misses; i++ {
		p.OnL2Access(c, set, false)
	}
	for i := 0; i < hits; i++ {
		p.OnL2Access(c, set, true)
	}
}

func TestASCCRoleTransitions(t *testing.T) {
	p := NewASCC(2, 16, 8, 1)
	if p.Name() != "ASCC" {
		t.Fatalf("name %q", p.Name())
	}
	// Fresh sets start as receivers (SSL = K-1).
	if p.Role(0, 3) != ssl.Receiver {
		t.Fatal("fresh set not receiver")
	}
	// Enough misses saturate to spiller.
	drive(p, 0, 3, 10, 0)
	if p.Role(0, 3) != ssl.Spiller {
		t.Fatal("saturated set not spiller")
	}
	// A couple of hits drop it to neutral.
	drive(p, 0, 3, 0, 2)
	if p.Role(0, 3) != ssl.Neutral {
		t.Fatal("set not neutral after hits")
	}
}

func TestASCCChooseReceiverMinimum(t *testing.T) {
	p := NewASCC(4, 16, 8, 1)
	// Cache 1's set 5 gets hits (low SSL), cache 2's set 5 stays at K-1,
	// cache 3's saturates.
	drive(p, 1, 5, 0, 4) // SSL 3
	drive(p, 3, 5, 10, 0)
	rs := p.Receivers(0, 5)
	if len(rs) != 2 || rs[0] != 1 {
		t.Fatalf("receivers = %v, want [1 2] (lowest SSL first)", rs)
	}
	// Saturate everyone: no receiver.
	drive(p, 1, 5, 20, 0)
	drive(p, 2, 5, 20, 0)
	if rs := p.Receivers(0, 5); len(rs) != 0 {
		t.Fatalf("receivers = %v, want none", rs)
	}
}

func TestASCCChooseReceiverTieRandom(t *testing.T) {
	p := NewASCC(4, 16, 8, 1)
	// All three candidates at K-1: ties broken randomly by rotation.
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		rs := p.Receivers(0, 5)
		if len(rs) != 3 {
			t.Fatalf("receivers = %v, want 3 candidates", rs)
		}
		seen[rs[0]] = true
	}
	if len(seen) != 3 {
		t.Fatalf("tie-break explored %v, want 3 first choices", seen)
	}
}

func TestASCCNeverReturnsSelf(t *testing.T) {
	p := NewASCC(2, 16, 8, 1)
	for i := 0; i < 50; i++ {
		for _, r := range p.Receivers(1, 2) {
			if r == 1 {
				t.Fatal("receiver == spiller cache")
			}
		}
	}
}

func TestASCCCapacityModeSwitchesToSABIP(t *testing.T) {
	p := NewASCC(2, 16, 8, 1)
	if p.InsertPos(0, 4) != cachesim.InsertMRU {
		t.Fatal("fresh set not MRU")
	}
	p.OnSpillFail(0, 4)
	// Now in SABIP mode: most inserts at LRU-1, occasionally MRU.
	counts := map[cachesim.InsertPos]int{}
	for i := 0; i < 3200; i++ {
		counts[p.InsertPos(0, 4)]++
	}
	if counts[cachesim.InsertLRU1] < 2900 {
		t.Fatalf("SABIP LRU-1 fraction too low: %v", counts)
	}
	if counts[cachesim.InsertMRU] == 0 {
		t.Fatalf("SABIP never inserted at MRU (epsilon broken): %v", counts)
	}
	if counts[cachesim.InsertLRU] != 0 {
		t.Fatalf("SABIP inserted at LRU: %v", counts)
	}
}

func TestASCCRevertsToMRUWhenSSLDrops(t *testing.T) {
	p := NewASCC(2, 16, 8, 1)
	drive(p, 0, 4, 10, 0) // saturate
	p.OnSpillFail(0, 4)
	if !p.Bank(0).BIPMode(4) {
		t.Fatal("BIP mode not set after spill failure")
	}
	// Hits bring SSL below K: revert to MRU.
	drive(p, 0, 4, 0, 9)
	if p.Bank(0).BIPMode(4) {
		t.Fatal("BIP mode not cleared when SSL fell below K")
	}
	if p.InsertPos(0, 4) != cachesim.InsertMRU {
		t.Fatal("insertion not back to MRU")
	}
}

func TestLMSBIPUsesLRUNotLRU1(t *testing.T) {
	p := published(t, "LMS+BIP", 2, 16, 8, 1)
	p.OnSpillFail(0, 4)
	counts := map[cachesim.InsertPos]int{}
	for i := 0; i < 1000; i++ {
		counts[p.InsertPos(0, 4)]++
	}
	if counts[cachesim.InsertLRU] < 900 || counts[cachesim.InsertLRU1] != 0 {
		t.Fatalf("LMS+BIP insertion wrong: %v", counts)
	}
}

func TestLRSRandomReceiver(t *testing.T) {
	p := published(t, "LRS", 4, 16, 8, 1)
	// Distinct SSLs: cache 1 lowest, but LRS must still pick any candidate
	// first.
	drive(p, 1, 5, 0, 4)
	seen := map[int]bool{}
	for i := 0; i < 300; i++ {
		seen[p.Receivers(0, 5)[0]] = true
	}
	if len(seen) != 3 {
		t.Fatalf("LRS explored %v, want all 3 candidates", seen)
	}
	// And no capacity response.
	p.OnSpillFail(0, 5)
	if p.InsertPos(0, 5) != cachesim.InsertMRU {
		t.Fatal("LRS changed insertion policy")
	}
}

func TestGMSSingleCounter(t *testing.T) {
	p := published(t, "GMS", 2, 16, 8, 1)
	if p.Bank(0).InUse() != 1 {
		t.Fatalf("GMS uses %d counters, want 1", p.Bank(0).InUse())
	}
	// Misses in any set drive the global role.
	drive(p, 0, 3, 10, 0)
	for set := 0; set < 16; set++ {
		if p.Role(0, set) != ssl.Spiller {
			t.Fatalf("GMS set %d not spiller after global saturation", set)
		}
	}
}

func TestASCC2SNoNeutral(t *testing.T) {
	p := published(t, "ASCC-2S", 2, 16, 8, 1)
	drive(p, 0, 3, 1, 0) // SSL = K: spiller under 2-state
	if p.Role(0, 3) != ssl.Spiller {
		t.Fatal("2S: SSL=K not spiller")
	}
	drive(p, 0, 3, 0, 1) // back to K-1
	if p.Role(0, 3) != ssl.Receiver {
		t.Fatal("2S: SSL=K-1 not receiver")
	}
}

func TestASCCGranularVariants(t *testing.T) {
	cfg, _ := Published("ASCC", 2, 4096, 8, 1)
	cfg.Granularity = 2
	p := NewASCCVariant(fmt.Sprintf("ASCC%d", cfg.Sets>>cfg.Granularity), cfg)
	if p.Name() != "ASCC1024" {
		t.Fatalf("name %q, want ASCC1024", p.Name())
	}
	if p.Bank(0).InUse() != 1024 {
		t.Fatalf("in use %d, want 1024", p.Bank(0).InUse())
	}
	// Sets sharing a counter share fate.
	drive(p, 0, 0, 10, 0)
	if p.Role(0, 3) != ssl.Spiller || p.Role(0, 4) != ssl.Receiver {
		t.Fatal("granular grouping wrong")
	}
}

// newQoSAVGCC builds QoS-AVGCC the way the harness registry does: the
// published AVGCC configuration with the §8 extension switched on.
func newQoSAVGCC(caches, sets, assoc int, seed uint64) *ASCC {
	cfg := AVGCCDefaultConfig(caches, sets, assoc, seed)
	cfg.QoS = true
	return NewASCCVariant("QoS-AVGCC", cfg)
}

func TestAVGCCStartsGlobalAndRefines(t *testing.T) {
	p := NewASCCVariant("AVGCC", AVGCCDefaultConfig(2, 512, 8, 1))
	if p.Bank(0).InUse() != 1 {
		t.Fatalf("AVGCC starts with %d counters, want 1", p.Bank(0).InUse())
	}
	// The single counter starts below K (B=1 > 0), so the first resize tick
	// refines.
	p.Tick(0, 100000)
	if p.Bank(0).InUse() != 2 {
		t.Fatalf("after tick: %d counters, want 2", p.Bank(0).InUse())
	}
	// Ticks at non-period counts do nothing.
	p.Tick(0, 100001)
	if p.Bank(0).InUse() != 2 {
		t.Fatal("off-period tick resized")
	}
}

func TestAVGCCLimitedCap(t *testing.T) {
	cfg := AVGCCDefaultConfig(2, 4096, 8, 1)
	cfg.MaxCounters = 128
	p := NewASCCVariant("AVGCC-max128", cfg)
	// Repeated refinement ticks must stop at 128 counters.
	for i := uint64(1); i <= 20; i++ {
		p.Tick(0, i*100000)
	}
	if p.Bank(0).InUse() > 128 {
		t.Fatalf("counter cap exceeded: %d", p.Bank(0).InUse())
	}
}

func TestQoSAVGCCInhibitsWhenWorse(t *testing.T) {
	p := newQoSAVGCC(2, 512, 8, 1)
	// Period with misses only in BIP-mode/receiver sets: the sampled-set
	// estimate MBC is 0, so QoSRatio becomes 0 and the SSL increment is
	// inhibited.
	for i := 0; i < 1000; i++ {
		p.OnL2Access(0, 3, false) // set 3: SSL starts at K-1 (receiver) -> sampled only when >K-1
	}
	// Set 3 saturated: it IS sampled (MRU mode, SSL > K-1) after warming.
	// Construct the opposite: all misses while sets stay receivers is not
	// reachable, so instead check the ratio reacts to the counters.
	p.recomputeQoS(0)
	inc := p.Bank(0).MissIncrement()
	if inc < 0 || inc > ssl.One {
		t.Fatalf("QoS increment out of range: %d", inc)
	}
	// When sampled sets see as many misses as the total, ratio ~= 1 (since
	// MBC = Sets * sampled/seen >= misses, capped at 1).
	p2 := newQoSAVGCC(2, 512, 8, 1)
	for i := 0; i < 50; i++ {
		p2.OnL2Access(0, 7, false)
	}
	p2.recomputeQoS(0)
	if p2.Bank(0).MissIncrement() != ssl.One {
		t.Fatalf("QoS increment %d, want full (harmless period)", p2.Bank(0).MissIncrement())
	}
}

func TestCapacityModeString(t *testing.T) {
	if CapacityNone.String() != "none" || CapacityBIP.String() != "BIP" || CapacitySABIP.String() != "SABIP" {
		t.Fatal("capacity mode names wrong")
	}
}

func TestASCCSSLMaxCeiling(t *testing.T) {
	cfg := ASCCConfig{
		Caches: 2, Sets: 16, Assoc: 8,
		Capacity: CapacitySABIP, Epsilon: 1.0 / 32.0, Swap: true,
		SSLMax: 10, Seed: 1,
	}
	p := NewASCCVariant("low-ceiling", cfg)
	// With ceiling 10, saturation takes 3 misses from the K-1 start
	// instead of 8.
	drive(p, 0, 3, 3, 0)
	if p.Role(0, 3) != ssl.Spiller {
		t.Fatalf("role %v after 3 misses with ceiling 10, want spiller", p.Role(0, 3))
	}
	// The default design is still neutral at that point.
	q := NewASCC(2, 16, 8, 1)
	drive(q, 0, 3, 3, 0)
	if q.Role(0, 3) == ssl.Spiller {
		t.Fatal("default ceiling saturated after only 3 misses")
	}
}

func TestASCCEWMAMetric(t *testing.T) {
	cfg := ASCCConfig{
		Caches: 3, Sets: 16, Assoc: 8,
		Capacity: CapacitySABIP, Epsilon: 1.0 / 32.0, Swap: true,
		EWMA: true, Seed: 1,
	}
	p := NewASCCVariant("ewma", cfg)
	if p.Role(0, 3) != ssl.Receiver {
		t.Fatal("EWMA set does not start as receiver")
	}
	drive(p, 0, 3, 40, 0)
	if p.Role(0, 3) != ssl.Spiller {
		t.Fatalf("EWMA role %v after a miss storm, want spiller", p.Role(0, 3))
	}
	// Receiver ordering must use the EWMA values: cache 1's set is hotter
	// (lower miss ratio) than cache 2's.
	drive(p, 1, 3, 0, 40)
	drive(p, 2, 3, 5, 20)
	rs := p.Receivers(0, 3)
	if len(rs) != 2 || rs[0] != 1 {
		t.Fatalf("receivers %v, want [1 2]", rs)
	}
	// BIP mode reverts when the EWMA says receiver.
	p.OnSpillFail(1, 3)
	if !p.Bank(1).BIPMode(3) {
		t.Fatal("spill failure did not arm BIP")
	}
	drive(p, 1, 3, 0, 10)
	if p.Bank(1).BIPMode(3) {
		t.Fatal("BIP not reverted under EWMA receiver state")
	}
}

func TestASCCEWMARejectsDynamicAndQoS(t *testing.T) {
	for _, cfg := range []ASCCConfig{
		{Caches: 2, Sets: 16, Assoc: 8, EWMA: true, Dynamic: true},
		{Caches: 2, Sets: 16, Assoc: 8, EWMA: true, QoS: true},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v accepted", cfg)
				}
			}()
			NewASCCVariant("x", cfg)
		}()
	}
}

// TestSABIPInsertionDepthOnCache drives a real cache with the insert
// positions ASCC emits in capacity mode and verifies — via the recency
// stacks themselves — that SABIP's common case lands guests one above the
// LRU, so the next spill (LRU insertion or eviction) cannot displace them
// immediately.
func TestSABIPInsertionDepthOnCache(t *testing.T) {
	p := NewASCC(2, 16, 8, 1)
	p.OnSpillFail(0, 4) // set 4 of core 0 enters capacity (SABIP) mode

	c := cachesim.New(cachesim.Config{SizeBytes: 8 * 64, Ways: 8, LineBytes: 64})
	// Fill the single set so insertions evict (the steady state).
	for blk := uint64(0); blk < 8; blk++ {
		c.Insert(blk, cachesim.InsertMRU, cachesim.Line{State: cachesim.Exclusive})
	}
	buf := make([]int, 0, c.Ways())
	lru1 := 0
	for i := 0; i < 256; i++ {
		blk := uint64(100 + i)
		c.Insert(blk, p.InsertPos(0, 4), cachesim.Line{State: cachesim.Shared, Spilled: true})
		buf = c.AppendRecencyStack(0, buf[:0])
		found, _ := c.Lookup(blk)
		depth := -1
		for d, way := range buf {
			if way == found {
				depth = d
			}
		}
		if depth == len(buf)-2 {
			lru1++
		} else if depth != 0 {
			t.Fatalf("insert %d landed at depth %d, want LRU-1 (%d) or MRU (0)", i, depth, len(buf)-2)
		}
	}
	if lru1 < 230 {
		t.Fatalf("only %d/256 SABIP insertions landed at LRU-1", lru1)
	}
}
