package netem

import "time"

// External-waiter support: simnet (the blocking-socket bridge)
// drives the simulator one event at a time so it can hand control to
// ordinary goroutines blocked on sim-backed sockets between events and
// inject their sends at a deterministic virtual time. Single-stepping is
// only meaningful when one queue holds every event — an unsharded
// simulator — so both entry points reject genuinely sharded ones: an
// external driver interleaving with multi-shard epochs would have no
// defined "current event" to pause at.

// NextEventAt reports the timestamp of the earliest pending event, and
// whether one exists. Unsharded simulators only.
func (s *Simulator) NextEventAt() (time.Time, bool) {
	s.guardSerial("NextEventAt")
	sh := s.shards[0]
	if sh.events.len() == 0 {
		return time.Time{}, false
	}
	return s.timeAt(sh.events.minAt()), true
}

// Step dispatches the single earliest pending event — a one-event
// window of the run loop — advancing the clock to its timestamp. It
// reports whether an event ran. Unsharded simulators only: external
// drivers (simnet) interleave Step with their own injections, which
// requires the one-queue event order.
func (s *Simulator) Step() bool {
	s.guardSerial("Step")
	sh := s.shards[0]
	if sh.runWindow(noLimit, 1) == 0 {
		return false
	}
	if s.committed < sh.now {
		s.committed = sh.now
	}
	return true
}

// guardSerial rejects single-step APIs on sharded simulators.
func (s *Simulator) guardSerial(api string) {
	s.refreshPlan()
	if s.multi {
		panic("netem: Simulator." + api + " requires an unsharded simulator; external waiters (simnet) cannot drive a sharded one")
	}
}
