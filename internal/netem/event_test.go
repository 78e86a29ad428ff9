package netem

import (
	"math/rand"
	"sort"
	"testing"

	"netneutral/internal/obs"
)

func newTestQueue() *eventQueue {
	return &eventQueue{inLane: new(obs.Counter), inHeap: new(obs.Counter)}
}

// queueScript drives an eventQueue beside the reference implementation —
// a slice kept sorted by (at, seq) — the way a shard drives it: a clock
// that only moves forward, a sequence number per push, delays clamped to
// now. Every step checks len() and minAt(); every pop must be the
// reference's first element.
type queueScript struct {
	t   *testing.T
	q   *eventQueue
	ref []event
	now int64
	seq uint64
}

func newQueueScript(t *testing.T) *queueScript {
	return &queueScript{t: t, q: newTestQueue(), now: simStart.UnixNano()}
}

func (s *queueScript) push(at, class int64) {
	s.seq++
	ev := event{at: at, seq: s.seq, kind: eventKind(s.seq % 5)}
	s.q.push(&ev, class)
	i := sort.Search(len(s.ref), func(i int) bool { return s.ref[i].at > at })
	s.ref = append(s.ref, event{})
	copy(s.ref[i+1:], s.ref[i:])
	s.ref[i] = ev
	s.check()
}

// schedule is shard.schedule: clamp to now, class = the delay.
func (s *queueScript) schedule(at int64) {
	if at < s.now {
		at = s.now
	}
	s.push(at, at-s.now)
}

func (s *queueScript) pop() {
	if len(s.ref) == 0 {
		return
	}
	var got event
	if s.q.popDue(s.ref[0].at-1, &got) {
		s.t.Fatalf("popDue(%d) returned an event at %d", s.ref[0].at-1, got.at)
	}
	s.q.popDue(s.ref[0].at, &got)
	want := s.ref[0]
	s.ref = s.ref[1:]
	if got.at != want.at || got.seq != want.seq || got.kind != want.kind {
		s.t.Fatalf("pop = (at %d, seq %d, kind %d), sorted order says (at %d, seq %d, kind %d)",
			got.at, got.seq, got.kind, want.at, want.seq, want.kind)
	}
	if got.at > s.now {
		s.now = got.at
	}
	s.check()
}

func (s *queueScript) check() {
	s.t.Helper()
	if s.q.len() != len(s.ref) {
		s.t.Fatalf("len() = %d, want %d", s.q.len(), len(s.ref))
	}
	if len(s.ref) > 0 && s.q.minAt() != s.ref[0].at {
		s.t.Fatalf("minAt() = %d, want %d", s.q.minAt(), s.ref[0].at)
	}
}

// scriptDelays has more entries than laneCount, so a script that keeps
// them all live at once overflows the lanes into the heap.
var scriptDelays = [...]int64{0, 20e3, 1e6, 20e6, 500e3, 32e6, 2800, 8320, 2e6, 5e6, 9e6, 16e6,
	23e6, 30e6, 100e6, 1e9, 7, 11, 13, 17, 19, 23}

// run interprets data as a push/pop script. Each op is one byte, taking
// operands from the bytes after it.
func (s *queueScript) run(data []byte) {
	next := func() int64 {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int64(b)
	}
	for len(data) > 0 {
		switch op := next(); op % 8 {
		case 0, 1: // local push, repeated delay class
			s.schedule(s.now + scriptDelays[next()%int64(len(scriptDelays))])
		case 2: // local push, arbitrary delay; negative ones clamp to now
			s.schedule(s.now + (next()-64)*(1+next()*1000))
		case 3, 4:
			s.pop()
		case 5: // a barrier's mailbox batch: sorted, may start before the last batch ended
			batch := make([]int64, 1+next()%8)
			for i := range batch {
				batch[i] = s.now + 1e6 + next()*100e3
			}
			sort.Slice(batch, func(i, j int) bool { return batch[i] < batch[j] })
			for _, at := range batch {
				s.push(at, mailboxClass)
			}
		case 6: // RunUntil: drain through a limit, then jump the clock there
			limit := s.now + next()*next()*1000
			for len(s.ref) > 0 && s.ref[0].at <= limit {
				s.pop()
			}
			s.now = limit
		case 7: // a push whose class says nothing about its time: tail guards fail
			s.push(s.now+next()*1000, scriptDelays[next()%4])
		}
	}
	for len(s.ref) > 0 {
		s.pop()
	}
}

func TestEventQueueMatchesSortedOrder(t *testing.T) {
	scripts := map[string][]byte{
		"one class":        {0, 2, 0, 2, 0, 2, 3, 0, 2, 3, 3, 3},
		"clamped to now":   {0, 2, 3, 2, 0, 9, 2, 10, 9, 3, 3},
		"tail guard fails": {7, 200, 2, 7, 100, 2, 7, 50, 2, 7, 250, 2, 3, 3, 3, 3},
		"mailbox overlap":  {5, 3, 200, 10, 100, 50, 5, 2, 20, 5, 3, 5, 1, 0, 3, 3},
		"clock jump":       {0, 3, 0, 15, 6, 50, 50, 0, 3, 6, 255, 255, 0, 0},
	}
	for name, data := range scripts {
		t.Run(name, func(t *testing.T) {
			newQueueScript(t).run(data)
		})
	}
	// More live classes than lanes: the heap takes the overflow, and the
	// lanes are re-tagged once drained.
	t.Run("more classes than lanes", func(t *testing.T) {
		var data []byte
		for round := 0; round < 3; round++ {
			for c := range scriptDelays {
				data = append(data, 0, byte(c), 1, byte(c))
			}
			for range scriptDelays {
				data = append(data, 3, 4, 3)
			}
		}
		s := newQueueScript(t)
		s.run(data)
		if s.q.inHeap.Value() == 0 || s.q.inLane.Value() == 0 {
			t.Fatalf("pushes: %d lane, %d heap; the script must take both paths",
				s.q.inLane.Value(), s.q.inHeap.Value())
		}
	})
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(16))
		for i := 0; i < 200; i++ {
			data := make([]byte, 1+rng.Intn(600))
			rng.Read(data)
			newQueueScript(t).run(data)
		}
	})
}

func FuzzEventQueueOrder(f *testing.F) {
	f.Add([]byte{0, 2, 0, 2, 3, 5, 3, 200, 10, 100, 7, 9, 1, 6, 20, 20, 2, 0, 9, 3})
	f.Add([]byte{5, 7, 1, 2, 3, 4, 5, 6, 7, 8, 5, 7, 8, 7, 6, 5, 4, 3, 2, 1, 3, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		newQueueScript(t).run(data)
	})
}

// queueMix is the delay mix measured on the scale workloads (sim-metro:
// 0 / 20 µs / 1 ms; sim-backbone adds the 20 ms fluid tick and ~8 % of
// pushes spread over a thousand serialization times near 2.7 µs).
func queueMix(rng *rand.Rand) int64 {
	switch p := rng.Intn(100); {
	case p < 40:
		return 0
	case p < 72:
		return 1e6
	case p < 84:
		return 20e3
	case p < 92:
		return 20e6
	default:
		return 2600 + rng.Int63n(400)
	}
}

// mixDriver replays queueMix the way runWindow does: pop, advance the
// clock, push the popped event's successor.
type mixDriver struct {
	q      *eventQueue
	now    int64
	seq    uint64
	delays []int64
	i      int
}

func newMixDriver(depth int) *mixDriver {
	rng := rand.New(rand.NewSource(16))
	d := &mixDriver{q: newTestQueue(), now: simStart.UnixNano(), delays: make([]int64, 1<<12)}
	for i := range d.delays {
		d.delays[i] = queueMix(rng)
	}
	for d.q.len() < depth {
		d.push()
	}
	return d
}

func (d *mixDriver) push() {
	delay := d.delays[d.i&(len(d.delays)-1)]
	d.i++
	d.seq++
	d.q.push(&event{at: d.now + delay, seq: d.seq, kind: evArrive}, delay)
}

func (d *mixDriver) step() {
	var ev event
	d.q.popDue(noLimit, &ev)
	d.now = ev.at
	d.push()
}

// TestEventQueueSteadyStateZeroAlloc: once the rings have grown to the
// working set, a push/pop cycle allocates nothing; and a popped slot is
// cleared, so the queue does not keep a delivered packet or a fired
// closure alive.
func TestEventQueueSteadyStateZeroAlloc(t *testing.T) {
	q := newTestQueue()
	q.push(&event{at: 1, seq: 1, pkt: new(Packet), node: new(Node), dir: new(linkDir), fn: func() {}}, 0)
	slot := &q.lanes[0].buf[q.lanes[0].head]
	q.popDue(noLimit, new(event))
	if slot.pkt != nil || slot.node != nil || slot.dir != nil || slot.fn != nil || slot.at != 0 || slot.seq != 0 {
		t.Errorf("popped ring slot still holds %+v", *slot)
	}
	if raceEnabled {
		t.Skip("allocation counts are distorted by race instrumentation")
	}
	d := newMixDriver(220) // the mean depth at pop on sim-backbone
	for i := 0; i < 20000; i++ {
		d.step()
	}
	if avg := testing.AllocsPerRun(5000, d.step); avg != 0 {
		t.Errorf("steady-state push/pop allocates %.3f objects per cycle, want 0", avg)
	}
}

func BenchmarkEventQueueMix(b *testing.B) {
	d := newMixDriver(220)
	for i := 0; i < 20000; i++ {
		d.step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.step()
	}
	b.StopTimer()
	lane, heap := d.q.inLane.Value(), d.q.inHeap.Value()
	b.ReportMetric(100*float64(lane)/float64(lane+heap), "lane-%")
}
