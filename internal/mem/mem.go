// Package mem models the shared resources behind the private LLCs: the
// on-chip snoop/transfer bus and the off-chip memory port, both as simple
// single-server queues.
//
// Latency and occupancy are separated: a request observes the fixed service
// latency plus whatever queueing delay the port's occupancy history imposes.
// A port keeps one scalar busy-until time and serves requests in the order
// they are made, which is arrival order only while arrival times do not
// decrease. The CMP engine's exact interleave (the core with the smallest
// clock steps next) gives that order for most requests but not all:
//
//   - A spill receiver's dirty writeback is charged at the receiver's clock,
//     which is at or after the stepping core's, so the stepping core's next
//     request can arrive earlier than that writeback.
//   - Under cmp.Params.SyncSlack (the set-sampled fast path) a core runs up
//     to the slack past the runner-up before yielding, so the next core's
//     requests can arrive earlier than the ones it made.
//
// An earlier arrival after a later one is not reordered: it waits for the
// busy-until time the later request left, even on a zero-occupancy port
// (TestPortOutOfOrderArrival). On the 445+401+444+456 mix at the default
// configuration (baseline and AVGCC, with the alone runs), 780 of 138,867
// bus and memory requests arrived earlier than one already made at the same
// port; at -sample 1/8, 829 of 17,377.
package mem

// Port is a single-server queue for a shared resource.
type Port struct {
	// Occupancy is how many cycles each request holds the port.
	Occupancy float64

	busyUntil float64
}

// Request records a request arriving at time t and returns the queueing
// delay it suffers before service starts.
func (p *Port) Request(t float64) (queueDelay float64) {
	start := t
	if p.busyUntil > start {
		start = p.busyUntil
		queueDelay = start - t
	}
	p.busyUntil = start + p.Occupancy
	return queueDelay
}

// Reset clears the port's history.
func (p *Port) Reset() { p.busyUntil = 0 }
