package main

import (
	"time"

	"ascc/internal/cachesim"
	"ascc/internal/coop"
	"ascc/internal/ssl"
)

// The policy hooks the shim counts, in the order the metrics list them.
const (
	hOnL2Access = iota
	hTick
	hRole
	hReceivers
	hInsertPos
	hSpillInsertPos
	hOnSpillFail
	nHooks
)

var hookNames = [nHooks]string{"on_l2_access", "tick", "role", "receivers", "insert_pos", "spill_insert_pos", "on_spill_fail"}

// hookSampleMask times one hook call in 64: timing every call would cost
// more than most hooks do.
const hookSampleMask = 63

// policyShim forwards every coop.Policy call to the wrapped policy,
// counting the hook calls, timing a sample of them, and optionally
// recording their arguments for the policy microbenchmark. It does not
// implement coop.AccessBatcher, which only the batched engine consults.
type policyShim struct {
	p         coop.Policy
	calls     [nHooks]uint64
	n         uint64 // all counted hook calls
	sampledNs int64
	sampled   uint64
	rec       *hookRecorder
}

// hookEvent is one recorded hook call.
type hookEvent struct {
	op  uint8
	c   int32
	set int32
	arg uint64 // hit / guestReused flag, or Tick's access count
}

// hookRecorder keeps the first maxHookEvents calls of one simulation.
type hookRecorder struct{ events []hookEvent }

const maxHookEvents = 1 << 18

func (r *hookRecorder) add(op uint8, c, set int, arg uint64) {
	if r != nil && len(r.events) < maxHookEvents {
		r.events = append(r.events, hookEvent{op: op, c: int32(c), set: int32(set), arg: arg})
	}
}

// enter counts a hook call and reports whether this call is timed.
func (s *policyShim) enter(h int) bool {
	s.calls[h]++
	s.n++
	return s.n&hookSampleMask == 0
}

func (s *policyShim) exit(t time.Time) {
	s.sampledNs += int64(time.Since(t))
	s.sampled++
}

// hookSeconds extrapolates the sampled hook time to every call.
func (s *policyShim) hookSeconds() float64 {
	if s.sampled == 0 {
		return 0
	}
	return float64(s.sampledNs) / 1e9 * float64(s.n) / float64(s.sampled)
}

func flag01(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (s *policyShim) Name() string { return s.p.Name() }

func (s *policyShim) OnL2Access(c, set int, hit bool) {
	s.rec.add(hOnL2Access, c, set, flag01(hit))
	if !s.enter(hOnL2Access) {
		s.p.OnL2Access(c, set, hit)
		return
	}
	t := time.Now()
	s.p.OnL2Access(c, set, hit)
	s.exit(t)
}

func (s *policyShim) Tick(c int, accesses uint64) {
	s.rec.add(hTick, c, 0, accesses)
	if !s.enter(hTick) {
		s.p.Tick(c, accesses)
		return
	}
	t := time.Now()
	s.p.Tick(c, accesses)
	s.exit(t)
}

func (s *policyShim) Role(c, set int) ssl.Role {
	s.rec.add(hRole, c, set, 0)
	if !s.enter(hRole) {
		return s.p.Role(c, set)
	}
	t := time.Now()
	r := s.p.Role(c, set)
	s.exit(t)
	return r
}

func (s *policyShim) Receivers(c, set int) []int {
	s.rec.add(hReceivers, c, set, 0)
	if !s.enter(hReceivers) {
		return s.p.Receivers(c, set)
	}
	t := time.Now()
	r := s.p.Receivers(c, set)
	s.exit(t)
	return r
}

func (s *policyShim) InsertPos(c, set int) cachesim.InsertPos {
	s.rec.add(hInsertPos, c, set, 0)
	if !s.enter(hInsertPos) {
		return s.p.InsertPos(c, set)
	}
	t := time.Now()
	r := s.p.InsertPos(c, set)
	s.exit(t)
	return r
}

func (s *policyShim) SpillInsertPos(c, set int, guestReused bool) cachesim.InsertPos {
	s.rec.add(hSpillInsertPos, c, set, flag01(guestReused))
	if !s.enter(hSpillInsertPos) {
		return s.p.SpillInsertPos(c, set, guestReused)
	}
	t := time.Now()
	r := s.p.SpillInsertPos(c, set, guestReused)
	s.exit(t)
	return r
}

func (s *policyShim) OnSpillFail(c, set int) {
	s.rec.add(hOnSpillFail, c, set, 0)
	if !s.enter(hOnSpillFail) {
		s.p.OnSpillFail(c, set)
		return
	}
	t := time.Now()
	s.p.OnSpillFail(c, set)
	s.exit(t)
}

func (s *policyShim) AllowRespill() bool       { return s.p.AllowRespill() }
func (s *policyShim) SpillRequiresReuse() bool { return s.p.SpillRequiresReuse() }
func (s *policyShim) SwapEnabled() bool        { return s.p.SwapEnabled() }
func (s *policyShim) GuestVictim() coop.GuestVictimMode {
	return s.p.GuestVictim()
}
func (s *policyShim) DemandVictimAllow(c, set int) func(way int) bool {
	return s.p.DemandVictimAllow(c, set)
}
func (s *policyShim) SpillVictimAllow(c, set int) func(way int) bool {
	return s.p.SpillVictimAllow(c, set)
}

// replayHooks drives a recorded hook sequence into p, discarding answers.
func replayHooks(p coop.Policy, events []hookEvent) {
	for _, e := range events {
		c, set := int(e.c), int(e.set)
		switch e.op {
		case hOnL2Access:
			p.OnL2Access(c, set, e.arg != 0)
		case hTick:
			p.Tick(c, e.arg)
		case hRole:
			p.Role(c, set)
		case hReceivers:
			p.Receivers(c, set)
		case hInsertPos:
			p.InsertPos(c, set)
		case hSpillInsertPos:
			p.SpillInsertPos(c, set, e.arg != 0)
		case hOnSpillFail:
			p.OnSpillFail(c, set)
		}
	}
}
