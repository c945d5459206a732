package policies

import (
	"testing"

	"ascc/internal/cachesim"
	"ascc/internal/ssl"
)

func TestDSRMonitorAssignment(t *testing.T) {
	p := NewDSR(2, 512, 8, 1)
	if p.Name() != "DSR" {
		t.Fatalf("name %q", p.Name())
	}
	// stride = 512/32 = 16: set 0 spill monitor, set 1 receive monitor.
	if p.Role(0, 0) != ssl.Spiller {
		t.Fatal("set 0 should always spill")
	}
	if p.Role(0, 1) != ssl.Receiver {
		t.Fatal("set 1 should always receive")
	}
	if p.Role(0, 16) != ssl.Spiller || p.Role(0, 17) != ssl.Receiver {
		t.Fatal("monitor stride wrong")
	}
}

func TestDSRPSELSteering(t *testing.T) {
	p := NewDSR(2, 512, 8, 1)
	mid := p.psel[0]
	// Misses in receive-monitor sets (set 1) raise PSEL: being a receiver
	// hurts, so followers become spillers.
	for i := 0; i < 100; i++ {
		p.OnL2Access(0, 1, false)
	}
	if p.psel[0] <= mid {
		t.Fatal("receive-monitor misses did not raise PSEL")
	}
	if p.Role(0, 5) != ssl.Spiller {
		t.Fatalf("followers not spilling, role=%v", p.Role(0, 5))
	}
	// Misses in spill-monitor sets (set 0) lower it back.
	for i := 0; i < 600; i++ {
		p.OnL2Access(0, 0, false)
	}
	if p.Role(0, 5) != ssl.Receiver {
		t.Fatalf("followers not receiving, role=%v psel=%d", p.Role(0, 5), p.psel[0])
	}
	// Hits never move the selector.
	v := p.psel[0]
	p.OnL2Access(0, 0, true)
	p.OnL2Access(0, 1, true)
	if p.psel[0] != v {
		t.Fatal("hits moved PSEL")
	}
}

func TestDSRChooseReceiver(t *testing.T) {
	p := NewDSR(3, 512, 8, 1)
	// Make cache 1 a spiller, cache 2 a receiver (followers).
	for i := 0; i < 600; i++ {
		p.OnL2Access(1, 1, false) // receiver sets miss -> spiller
		p.OnL2Access(2, 0, false) // spiller sets miss -> receiver
	}
	// From cache 0, a follower set (e.g. 5): only cache 2 receives.
	if rs := p.Receivers(0, 5); len(rs) != 1 || rs[0] != 2 {
		t.Fatalf("receivers = %v, want [2]", rs)
	}
	// For a receive-monitor set index (1), both peers' sets receive, and
	// the random rotation explores both orders.
	first := map[int]bool{}
	for i := 0; i < 100; i++ {
		rs := p.Receivers(0, 1)
		if len(rs) != 2 {
			t.Fatalf("receivers = %v, want both peers", rs)
		}
		first[rs[0]] = true
	}
	if !first[1] || !first[2] {
		t.Fatalf("rotation never varied the order: %v", first)
	}
}

func TestDSR3SNeutralBand(t *testing.T) {
	p := NewDSR3S(2, 512, 8, 1)
	if p.Name() != "DSR-3S" {
		t.Fatalf("name %q", p.Name())
	}
	// PSEL starts mid-range: MSBs = 10 -> neutral.
	if p.Role(0, 5) != ssl.Neutral {
		t.Fatalf("mid PSEL role %v, want neutral", p.Role(0, 5))
	}
	// Drive to the top: spiller.
	for i := 0; i < 600; i++ {
		p.OnL2Access(0, 1, false)
	}
	if p.Role(0, 5) != ssl.Spiller {
		t.Fatalf("top PSEL role %v, want spiller", p.Role(0, 5))
	}
	// Drive to the bottom: receiver.
	for i := 0; i < 1200; i++ {
		p.OnL2Access(0, 0, false)
	}
	if p.Role(0, 5) != ssl.Receiver {
		t.Fatalf("bottom PSEL role %v, want receiver", p.Role(0, 5))
	}
}

func TestDSRDIPInsertion(t *testing.T) {
	p := NewDSRDIP(2, 512, 8, 1)
	if p.Name() != "DSR+DIP" {
		t.Fatalf("name %q", p.Name())
	}
	// Monitor sets: set 2 always MRU, set 3 always BIP.
	if p.InsertPos(0, 2) != cachesim.InsertMRU {
		t.Fatal("MRU monitor not MRU")
	}
	bipLRU := 0
	for i := 0; i < 100; i++ {
		if p.InsertPos(0, 3) == cachesim.InsertLRU {
			bipLRU++
		}
	}
	if bipLRU < 90 {
		t.Fatalf("BIP monitor LRU fraction %d/100", bipLRU)
	}
	// Followers default to MRU (selector mid => not > half).
	if p.InsertPos(0, 5) != cachesim.InsertMRU {
		t.Fatal("follower not MRU at start")
	}
	// Misses in the MRU monitor push followers to BIP.
	for i := 0; i < 600; i++ {
		p.OnL2Access(0, 2, false)
	}
	lru := 0
	for i := 0; i < 100; i++ {
		if p.InsertPos(0, 5) == cachesim.InsertLRU {
			lru++
		}
	}
	if lru < 90 {
		t.Fatalf("followers not switched to BIP: %d/100 LRU", lru)
	}
	// Plain DSR never changes insertion.
	plain := NewDSR(2, 512, 8, 1)
	for i := 0; i < 600; i++ {
		plain.OnL2Access(0, 2, false)
	}
	if plain.InsertPos(0, 5) != cachesim.InsertMRU {
		t.Fatal("plain DSR changed insertion")
	}
}

func TestDSRNoSwapNoRespill(t *testing.T) {
	p := NewDSR(2, 512, 8, 1)
	if p.SwapEnabled() || p.AllowRespill() {
		t.Fatal("DSR has ASCC features enabled")
	}
	if p.SpillInsertPos(0, 0, false) != cachesim.InsertMRU {
		t.Fatal("spill insert not MRU")
	}
	if p.DemandVictimAllow(0, 0) != nil || p.SpillVictimAllow(0, 0) != nil {
		t.Fatal("DSR restricts victims")
	}
}

func TestDSRTinyCacheStride(t *testing.T) {
	// Tiny caches (tests) still get distinct monitor classes.
	p := NewDSR(2, 16, 4, 1)
	if p.Role(0, 0) != ssl.Spiller || p.Role(0, 1) != ssl.Receiver {
		t.Fatal("tiny-cache monitors wrong")
	}
}
