package diffserv

import (
	"net/netip"
	"testing"
	"time"

	"netneutral/internal/netem"
	"netneutral/internal/wire"
)

func qp(dscp uint8, size int) *netem.Packet {
	return &netem.Packet{DSCP: dscp, Size: size, Pkt: make([]byte, size)}
}

func TestDefaultClassifier(t *testing.T) {
	cases := []struct {
		dscp uint8
		want int
	}{
		{DSCPExpedited, 0}, {DSCPNetworkCtrl, 0},
		{DSCPAF11, 1}, {DSCPAF41, 1},
		{DSCPBestEffort, 2}, {DSCPScavenger, 2},
	}
	for _, c := range cases {
		if got := DefaultClassifier(c.dscp); got != c.want {
			t.Errorf("DefaultClassifier(%d) = %d, want %d", c.dscp, got, c.want)
		}
	}
}

func TestPriorityQueueStrictOrdering(t *testing.T) {
	q := NewPriorityQueue()
	q.Enqueue(qp(DSCPBestEffort, 100))
	q.Enqueue(qp(DSCPExpedited, 100))
	q.Enqueue(qp(DSCPAF41, 100))
	q.Enqueue(qp(DSCPExpedited, 100))

	order := []uint8{}
	for p := q.Dequeue(); p != nil; p = q.Dequeue() {
		order = append(order, p.DSCP)
	}
	want := []uint8{DSCPExpedited, DSCPExpedited, DSCPAF41, DSCPBestEffort}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestPriorityQueuePerClassCaps(t *testing.T) {
	q := NewPriorityQueue()
	refused := 0
	for i := 0; i < perClassCap+2; i++ {
		if !q.Enqueue(qp(DSCPBestEffort, 10)) {
			refused++
		}
	}
	if q.Len() != perClassCap {
		t.Errorf("Len = %d, want %d", q.Len(), perClassCap)
	}
	if refused != 2 {
		t.Errorf("best-effort class refused %d of %d at a cap of %d, want 2", refused, perClassCap+2, perClassCap)
	}
	// High-priority class unaffected by best-effort pressure.
	if !q.Enqueue(qp(DSCPExpedited, 10)) {
		t.Error("EF enqueue rejected despite free class queue")
	}
}

func TestPriorityQueueEmptyDequeue(t *testing.T) {
	q := NewPriorityQueue()
	if q.Dequeue() != nil {
		t.Error("empty dequeue should be nil")
	}
}

func TestTokenBucketConformance(t *testing.T) {
	// 8000 bps = 1000 bytes/sec; burst 500 bytes.
	tb := NewTokenBucket(8000, 500)
	now := time.Unix(0, 0)
	// Burst drains the bucket.
	if !tb.Allow(now, 500) {
		t.Fatal("initial burst should conform")
	}
	if tb.Allow(now, 100) {
		t.Error("bucket should be empty")
	}
	// After 100ms, 100 bytes of tokens accumulate.
	now = now.Add(100 * time.Millisecond)
	if !tb.Allow(now, 100) {
		t.Error("refilled tokens should admit 100 bytes")
	}
	if tb.Allow(now, 10) {
		t.Error("bucket drained again")
	}
	// Tokens cap at burst.
	now = now.Add(time.Hour)
	if !tb.Allow(now, 500) {
		t.Error("bucket should cap at burst depth")
	}
	if tb.Allow(now, 200) {
		t.Error("cap exceeded")
	}
}

// TestTieredServiceOnLink is the §3.4 claim end to end: two flows share a
// congested link; the one marked EF by a paid tier keeps low loss while
// best effort suffers — and this works on DSCP alone, with no knowledge
// of who the endpoints are.
func TestTieredServiceOnLink(t *testing.T) {
	start := time.Date(2006, 11, 1, 0, 0, 0, 0, time.UTC)
	s := netem.NewSimulator(start, 1)
	a := s.MustAddNode("a", "", mustAddr("10.0.0.1"))
	b := s.MustAddNode("b", "", mustAddr("10.0.0.2"))
	// Slow link with a priority queue at a's egress.
	link := s.Connect(a, b, netem.LinkConfig{Delay: time.Millisecond, RateBps: 80_000, QueueLen: 8})
	if err := link.SetQueue(a, NewPriorityQueue()); err != nil {
		t.Fatal(err)
	}
	s.BuildRoutes()

	got := map[uint8]int{}
	b.SetHandler(func(_ time.Time, pkt []byte) { got[pkt[1]>>2]++ })

	mk := func(dscp uint8) []byte {
		payload := make([]byte, 100)
		buf := wire.NewSerializeBuffer(28, len(payload))
		buf.PushPayload(payload)
		ip := &wire.IPv4{TTL: 64, Protocol: wire.ProtoUDP, TOS: dscp << 2,
			Src: mustAddr("10.0.0.1"), Dst: mustAddr("10.0.0.2")}
		if err := wire.SerializeLayers(buf, ip, &wire.UDP{SrcPort: 1, DstPort: 2}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// Offer ~2x the link rate over time: a 128-byte packet serializes in
	// 12.8ms at 80kbps, and we inject one EF + one BE every 12.8ms. The
	// backlog must shed half the load; strict priority sheds best effort.
	interval := 12800 * time.Microsecond
	for i := 0; i < 40; i++ {
		s.Schedule(time.Duration(i)*interval, func() {
			_ = a.Send(mk(DSCPExpedited))
			_ = a.Send(mk(DSCPBestEffort))
		})
	}
	s.Run()
	if got[DSCPExpedited] <= got[DSCPBestEffort] {
		t.Errorf("EF=%d BE=%d: paid tier should win under congestion",
			got[DSCPExpedited], got[DSCPBestEffort])
	}
	if got[DSCPExpedited] < 35 {
		t.Errorf("EF delivered only %d/40", got[DSCPExpedited])
	}
}

func mustAddr(s string) netip.Addr { return netip.MustParseAddr(s) }
