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
	total := p.Request(0) // busy until 4
	d := p.Request(1)
	if d != 3 {
		t.Fatalf("second request delay %v, want 3", d)
	}
	total += d
	// busy until 1+3+4 = 8
	if d = p.Request(2); d != 6 {
		t.Fatalf("third request delay %v, want 6", d)
	}
	if total += d; total != 9 {
		t.Fatalf("total delay %v over three requests, want 9", total)
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
	// The port is busy until 4 again, not 12 as without the reset.
	if d := p.Request(1); d != 3 {
		t.Fatalf("second request after reset delayed %v, want 3", d)
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
	if d := z.Request(50); d != 0 {
		t.Fatalf("zero-occupancy first request delayed %v", d)
	}
	if d := z.Request(30); d != 20 {
		t.Fatalf("zero-occupancy earlier arrival delayed %v, want 20", d)
	}
	// The earlier arrival left the port busy until 50, not 30.
	if d := z.Request(40); d != 10 {
		t.Fatalf("zero-occupancy next arrival delayed %v, want 10", d)
	}
}
