package netem

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// The run loop. Every simulation — sharded or not — executes in
// conservative epochs: at each barrier the coordinator finds the
// earliest pending event time `next` across all shards and opens the
// window [next, next+lookahead). Every shard independently executes its
// own events inside the window; any packet it sends toward another
// shard arrives at least `lookahead` later — the minimum propagation
// delay of all cross-shard links — so the arrival provably lands at or
// beyond the window's end and can be exchanged at the barrier instead
// of interrupting the receiver. Incoming events are merged in (time,
// source shard, source sequence) order and re-sequenced locally, a pure
// function of event content; the merge visits only (source, destination)
// pairs that spoke and is skipped when none did. Shards evolve identically
// whether the per-epoch phases run on one worker or many: `-seed` replay
// is bit-identical at every worker count.
//
// An unsharded simulator is the degenerate case, not a second loop: one
// shard, no cross-shard link, hence an unbounded window — a Run call is
// a single epoch that drains the queue in (time, seq) order, and
// handlers may freely call back into the simulator.

// noLimit is the run limit of Simulator.Run: every event is inside it.
const noLimit = math.MaxInt64

// refreshPlan recomputes the execution plan after a topology change:
// whether any node lives beyond shard 0, and the conservative lookahead
// (minimum cross-shard link propagation delay; 0 when no link crosses
// shards, which leaves windows unbounded).
func (s *Simulator) refreshPlan() {
	if !s.planDirty {
		return
	}
	s.planDirty = false
	s.multi = false
	s.lookahead = 0
	for _, n := range s.nodeList {
		if n.sh.id != 0 {
			s.multi = true
		}
		for _, l := range n.links {
			if n != l.a {
				continue // visit each link once
			}
			for _, d := range l.dirs {
				if d.from.sh == d.to.sh {
					continue
				}
				if d.cfg.Delay <= 0 {
					panic(fmt.Sprintf(
						"netem: link %s->%s crosses shards %d->%d with no propagation delay; conservative parallel execution needs Delay > 0 on every cross-shard link",
						d.from.Name, d.to.Name, d.from.sh.id, d.to.sh.id))
				}
				if s.lookahead == 0 || d.cfg.Delay < s.lookahead {
					s.lookahead = d.cfg.Delay
				}
			}
		}
	}
	s.met.lookahead.Set(int64(s.lookahead))
}

// runLimit is the engine behind Run/RunUntil: it executes events with
// at <= limit in epochs, then (for a real limit) advances every clock
// to limit.
func (s *Simulator) runLimit(limit int64) {
	s.refreshPlan()
	workers := min(s.workers, len(s.shards))
	if !s.multi {
		workers = 1 // every node is on shard 0: nothing to run beside it
	}
	s.parallelRun = workers > 1
	defer func() { s.parallelRun = false }()
	// Sparse epochs (drain tails, bursty idle periods) are cheaper to
	// run inline than to fan out: below this many pending events per
	// worker, goroutine spawn/join overhead dominates the work. The
	// choice is pure execution strategy — results are identical either
	// way — so the threshold cannot affect determinism.
	const minEventsPerWorker = 32
	for {
		next, pending := s.nextEventTime()
		if pending == 0 || next > limit {
			break
		}
		epochStart := time.Now()
		if s.committed < next {
			s.committed = next
		}
		// The window's last instant: RunUntil is inclusive, so limit
		// itself unless the lookahead bound ends the window sooner.
		last := limit
		if s.lookahead > 0 {
			last = min(limit, next+int64(s.lookahead)-1)
		}
		w := workers
		if pending < minEventsPerWorker*workers {
			w = 1
		}
		s.runPhase(w, phaseRun, last)
		// Merge cost follows the pairs that spoke, down to no phase at all.
		drained := s.gatherSources()
		if drained > 0 {
			s.runPhase(w, phaseMerge, 0)
		}
		s.met.mailDrained.Add(uint64(drained))
		s.met.mailSilent.Add(uint64(len(s.shards)*(len(s.shards)-1) - drained))
		s.met.epochs.Inc()
		s.met.epochWall.ObserveDuration(time.Since(epochStart))
		// Observation piggybacks on the barrier that already exists:
		// committed (the window start) is the deterministic virtual
		// timestamp of this epoch. An unbounded window has no barrier of
		// its own — the epoch ends where the call does, at the tick
		// below.
		if s.lookahead > 0 {
			s.barrierTick(s.committed)
		}
	}
	for _, sh := range s.shards {
		if limit != noLimit && sh.now < limit {
			sh.now = limit
		}
		// Every shard is quiescent at its clock, so committed — the time
		// all shards are known to have reached, and the floor that keeps
		// Now() from rewinding when a later shard assignment flips it to
		// the committed clock — catches up.
		if s.committed < sh.now {
			s.committed = sh.now
		}
	}
	// Final tick at the post-run clock so observers sample the end state
	// even when the tail epoch was interval-gated away.
	s.barrierTick(s.committed)
}

// nextEventTime finds the earliest pending event across shards, along
// with the total pending count (zero: nothing to run; also the
// parallel-vs-inline heuristic). Called only at barriers, when all
// outboxes are drained.
func (s *Simulator) nextEventTime() (at int64, pending int) {
	at = noLimit
	for _, sh := range s.shards {
		n := sh.events.len()
		if n == 0 {
			continue
		}
		pending += n
		if h := sh.events.minAt(); h < at {
			at = h
		}
	}
	return at, pending
}

// phase selectors for the worker pool.
const (
	phaseRun = iota
	phaseMerge
)

// gatherSources transposes every shard's spoke list into its
// destinations' sources and reports how many (source, destination) pairs
// spoke. Ascending shard order keeps each sources list ascending: the order
// homebound buffers are reclaimed in decides pool reuse. Coordinator only.
func (s *Simulator) gatherSources() (pairs int) {
	for _, src := range s.shards {
		for _, d := range src.spoke {
			dst := s.shards[d]
			if k := len(dst.sources); k == 0 || dst.sources[k-1] != src {
				dst.sources = append(dst.sources, src)
				pairs++
			}
		}
		src.spoke = src.spoke[:0]
	}
	return pairs
}

// runPhase runs one epoch phase over all shards: inline for one worker,
// else on that many goroutines. Shards are claimed dynamically
// (execution is a pure function of shard state, so which worker runs a
// shard cannot affect results — only load balance).
func (s *Simulator) runPhase(workers, phase int, last int64) {
	if workers <= 1 {
		for _, sh := range s.shards {
			sh.runPhase(phase, last)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(s.shards) {
					return
				}
				s.shards[k].runPhase(phase, last)
			}
		}()
	}
	wg.Wait()
}

func (sh *shard) runPhase(phase int, last int64) {
	if phase == phaseRun {
		sh.runWindow(last, math.MaxInt)
	} else {
		sh.mergeIncoming()
	}
}

// runWindow executes the shard's events with timestamps <= last, at
// most max of them, and reports how many ran — the engine's one place
// an event is popped, clocked, counted and dispatched. Events it
// generates for its own shard join the queue immediately; events for
// other shards are staged in the outbox.
func (sh *shard) runWindow(last int64, max int) int {
	n := 0
	for n < max {
		var ev event
		if !sh.events.popDue(last, &ev) {
			break
		}
		sh.now = ev.at
		sh.mEvents.Inc()
		sh.dispatchEvent(&ev)
		n++
	}
	return n
}

// mergeIncoming drains the outbox slot of every shard that spoke to this
// one (sh.sources) and inserts the events in deterministic (time, source
// shard, source sequence) order, re-homing in-flight packets to this
// shard's pool. Runs in the barrier's merge phase: sources are quiescent,
// and each (source, destination) slot has exactly one reader.
func (sh *shard) mergeIncoming() {
	buf := sh.mergeBuf[:0]
	for _, src := range sh.sources {
		// Reclaim buffers this shard allocated that died on src's shard,
		// so producer shards keep recycling instead of allocating anew.
		if hb := src.pool.homebound; len(hb) > sh.id && len(hb[sh.id]) > 0 {
			for _, p := range hb[sh.id] {
				p.pool = &sh.pool
				sh.pool.free = append(sh.pool.free, p)
			}
			for i := range hb[sh.id] {
				hb[sh.id][i] = nil
			}
			src.pool.homebound[sh.id] = hb[sh.id][:0]
		}
		if len(src.outbox) <= sh.id {
			continue
		}
		in := src.outbox[sh.id]
		if len(in) == 0 {
			continue
		}
		buf = append(buf, in...)
		for i := range in {
			in[i] = remoteEvent{} // drop packet references for the GC
		}
		src.outbox[sh.id] = in[:0]
	}
	sh.sources = sh.sources[:0]
	if len(buf) == 0 {
		sh.mergeBuf = buf
		return
	}
	slices.SortFunc(buf, func(a, b remoteEvent) int {
		switch {
		case a.ev.at < b.ev.at:
			return -1
		case a.ev.at > b.ev.at:
			return 1
		case a.src != b.src:
			return int(a.src) - int(b.src)
		case a.ev.seq < b.ev.seq:
			return -1
		case a.ev.seq > b.ev.seq:
			return 1
		}
		return 0
	})
	for i := range buf {
		ev := &buf[i].ev
		if ev.pkt != nil {
			ev.pkt.pool = &sh.pool // re-home: Release returns it here
		}
		sh.seq++
		ev.seq = sh.seq
		sh.events.push(ev, mailboxClass)
		buf[i] = remoteEvent{}
	}
	sh.mergeBuf = buf[:0]
}
