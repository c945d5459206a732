package mem

import "testing"

func TestPortNoContention(t *testing.T) {
	p := &Port{Occupancy: 4}
	if d := p.Request(0); d != 0 {
		t.Fatalf("first request delayed %v", d)
	}
	if d := p.Request(10); d != 0 {
		t.Fatalf("spaced request delayed %v", d)
	}
}

func TestPortQueueing(t *testing.T) {
	p := &Port{Occupancy: 4}
	p.Request(0) // busy until 4
	if d := p.Request(1); d != 3 {
		t.Fatalf("second request delay %v, want 3", d)
	}
	// busy until 1+3+4 = 8
	if d := p.Request(2); d != 6 {
		t.Fatalf("third request delay %v, want 6", d)
	}
	reqs, total := p.Stats()
	if reqs != 3 || total != 9 {
		t.Fatalf("stats %d/%v, want 3/9", reqs, total)
	}
}

func TestPortBackToBackSaturation(t *testing.T) {
	// n simultaneous arrivals serialise completely.
	p := &Port{Occupancy: 2}
	var total float64
	for i := 0; i < 10; i++ {
		total += p.Request(100)
	}
	// Delays: 0,2,4,...,18 = 90.
	if total != 90 {
		t.Fatalf("total delay %v, want 90", total)
	}
}

func TestPortReset(t *testing.T) {
	p := &Port{Occupancy: 4}
	p.Request(0)
	p.Request(0)
	p.Reset()
	if d := p.Request(0); d != 0 {
		t.Fatalf("request after reset delayed %v", d)
	}
	if reqs, q := p.Stats(); reqs != 1 || q != 0 {
		t.Fatalf("stats after reset %d/%v", reqs, q)
	}
}

// TestPortOutOfOrderArrival pins what Request does when an arrival is
// earlier than one already made: it is served after the later request, in
// call order, and is charged the wait until that request's busy-until time.
// A zero-occupancy port charges the gap between the two arrivals.
func TestPortOutOfOrderArrival(t *testing.T) {
	p := &Port{Occupancy: 4}
	if d := p.Request(100); d != 0 {
		t.Fatalf("first request delayed %v", d)
	}
	// Arrives at 90, ten cycles before the request already served at 100:
	// it starts when that one frees the port, at 104.
	if d := p.Request(90); d != 14 {
		t.Fatalf("earlier arrival delayed %v, want 14", d)
	}
	// The port is now busy until 108.
	if d := p.Request(106); d != 2 {
		t.Fatalf("next arrival delayed %v, want 2", d)
	}

	z := &Port{}
	z.Request(50)
	if d := z.Request(30); d != 20 {
		t.Fatalf("zero-occupancy earlier arrival delayed %v, want 20", d)
	}
	if reqs, q := z.Stats(); reqs != 2 || q != 20 {
		t.Fatalf("zero-occupancy stats %d/%v, want 2/20", reqs, q)
	}
}
