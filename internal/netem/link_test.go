package netem

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strconv"
	"testing"
	"time"
	"unsafe"

	"netneutral/internal/obs"
)

// directWorld is everything the link layer's two ways of starting a
// serialization must agree on.
type directWorld struct {
	trace          []obs.TraceRec
	received       []byte // delivery time + packet bytes, both receivers, in order
	counters       map[string]uint64
	direct, queued uint64
}

// runDirectWorld drives one seeded scenario over a — r1 — r2 — c: an
// unpaced access link, a slow short-queued bottleneck that bursts
// overflow, and a faster paced link, with traffic both ways. With
// forceQueued every direction gets an explicitly installed FIFO of the
// capacity the default would have had, which takes the packet-in-hand
// shortcut away: SetQueue is something the link observes, not a mode.
func runDirectWorld(t *testing.T, forceQueued bool) *directWorld {
	t.Helper()
	s := NewSimulator(simStart, 33)
	a := s.MustAddNode("a", "", addr("10.0.0.1"))
	r1 := s.MustAddNode("r1", "", addr("10.0.0.254"))
	r2 := s.MustAddNode("r2", "", addr("10.0.1.254"))
	c := s.MustAddNode("c", "", addr("10.0.1.1"))
	cfgs := []LinkConfig{
		{Delay: time.Millisecond},
		{Delay: 2 * time.Millisecond, RateBps: 2e6, QueueLen: 4},
		{Delay: time.Millisecond, RateBps: 20e6},
	}
	links := []*Link{s.Connect(a, r1, cfgs[0]), s.Connect(r1, r2, cfgs[1]), s.Connect(r2, c, cfgs[2])}
	s.BuildRoutes()
	if forceQueued {
		for i, l := range links {
			for _, from := range []*Node{l.dirs[0].from, l.dirs[1].from} {
				if err := l.SetQueue(from, NewFIFOQueue(cfgs[i].QueueLen)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	fr := obs.NewFlightRecorder(obs.FlightConfig{RingSize: 1 << 15, SampleFlows: 1})
	s.AttachFlightRecorder(fr)
	w := &directWorld{counters: map[string]uint64{}}
	capture := func(now time.Time, pkt []byte) {
		w.received = append(binary.BigEndian.AppendUint64(w.received, uint64(now.UnixNano())), pkt...)
	}
	a.SetHandler(capture)
	c.SetHandler(capture)

	// Bursts of 1-8 packets of random size at random instants, each way:
	// single packets find idle lines, bursts find them busy, and the long
	// ones overflow the bottleneck's four slots.
	rng := rand.New(rand.NewSource(33))
	for i := 0; i < 120; i++ {
		src, dst := a, c
		if i%3 == 0 {
			src, dst = c, a
		}
		n, size := 1+rng.Intn(8), 20+rng.Intn(900)
		pkt := mkUDP(t, src.Addr(), dst.Addr(), make([]byte, size))
		s.Schedule(time.Duration(rng.Intn(300_000))*time.Microsecond, func() {
			for k := 0; k < n; k++ {
				pkt[len(pkt)-1] = byte(k)
				_ = src.Send(pkt)
			}
		})
	}
	s.RunFor(150 * time.Millisecond)
	s.Run()

	if ev := fr.Evicted(); ev != 0 {
		t.Fatalf("ring evicted %d events", ev)
	}
	w.trace = fr.Events()
	snap := s.Metrics().Snapshot()
	for _, name := range []string{
		"netem_events_total", "netem_delivered_packets_total", "netem_forwarded_packets_total",
		"netem_dropped_packets_total", "netem_link_tx_packets_total", "netem_link_queue_drops_total",
		"netem_pool_allocated_buffers_total", "netem_pool_checkouts_total",
	} {
		w.counters[name] = uint64(snap.Get(name).Value)
	}
	w.direct, w.queued = family(s, `netem_link_starts_total{path="direct"}`), family(s, `netem_link_starts_total{path="queued"}`)
	return w
}

// TestDirectTransmitMatchesQueued: starting a serialization with the
// packet in hand is the queued path's behaviour exactly — the complete
// flight-recorder stream (times, queue waits, drops), the bytes and
// instants every handler saw and the registry counters (link
// transmissions and queue drops among them) are identical with default links and with a FIFO forced onto
// every direction. Then the one new state, a line busy with no queue.
func TestDirectTransmitMatchesQueued(t *testing.T) {
	def, forced := runDirectWorld(t, false), runDirectWorld(t, true)
	if def.direct == 0 || def.queued == 0 || def.counters["netem_link_queue_drops_total"] == 0 {
		t.Fatalf("degenerate scenario: direct=%d queued=%d queue drops=%d; want all three",
			def.direct, def.queued, def.counters["netem_link_queue_drops_total"])
	}
	if forced.direct != 0 || forced.queued != def.direct+def.queued {
		t.Errorf("installed queues: direct=%d queued=%d, want 0 and %d (an installed Queue sees every packet)",
			forced.direct, forced.queued, def.direct+def.queued)
	}
	if len(def.trace) != len(forced.trace) {
		t.Fatalf("trace length %d direct, %d queued", len(def.trace), len(forced.trace))
	}
	for i := range def.trace {
		if def.trace[i] != forced.trace[i] {
			t.Fatalf("trace[%d] diverged:\n direct %+v\n queued %+v", i, def.trace[i], forced.trace[i])
		}
	}
	if !bytes.Equal(def.received, forced.received) {
		t.Error("handlers saw different deliveries")
	}
	for name, v := range def.counters {
		if forced.counters[name] != v {
			t.Errorf("%s: direct %d, queued %d", name, v, forced.counters[name])
		}
	}

	// SetQueue while a direct transmission is in flight: the packet in
	// service is left alone and the next one queues in the new discipline.
	s := NewSimulator(simStart, 1)
	a := s.MustAddNode("a", "", addr("10.0.0.1"))
	b := s.MustAddNode("b", "", addr("10.0.0.2"))
	l := s.Connect(a, b, LinkConfig{Delay: time.Millisecond, RateBps: 1e4})
	s.BuildRoutes()
	var got []byte
	b.SetHandler(func(_ time.Time, pkt []byte) { got = append(got, pkt[len(pkt)-1]) })
	if err := a.Send(mkUDP(t, a.Addr(), b.Addr(), []byte{1})); err != nil {
		t.Fatal(err)
	}
	if d := l.dir(a); !d.busy || d.queue != nil {
		t.Fatalf("one packet in service: busy=%v queue=%v, want busy, no queue", d.busy, d.queue)
	}
	q := NewFIFOQueue(2)
	if err := l.SetQueue(a, q); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(mkUDP(t, a.Addr(), b.Addr(), []byte{2})); err != nil {
		t.Fatal(err)
	}
	if q.Len() != 1 || l.dir(a).queue != Queue(q) {
		t.Errorf("after SetQueue mid-transmission: new queue holds %d, want 1, and to be the direction's queue", q.Len())
	}
	s.Run()
	if sent, dropped := family(s, "netem_link_tx_packets_total"), family(s, "netem_link_queue_drops_total"); !bytes.Equal(got, []byte{1, 2}) || sent != 2 || dropped != 0 {
		t.Errorf("delivered %v (sent %d, dropped %d), want [1 2], 2, 0", got, sent, dropped)
	}
}

// TestLinkSize: a million-host backbone holds a Link per host, with
// both directions inline, so the struct must not grow past two 64-byte
// directions.
func TestLinkSize(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("size bound is for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Link{}); got > 112 {
		t.Errorf("unsafe.Sizeof(Link{}) = %d B, want <= 112", got)
	}
}
