package intserv

import (
	"net/netip"
	"testing"

	"netneutral/internal/wire"
)

var (
	srcA = netip.MustParseAddr("172.16.0.1")
	srcB = netip.MustParseAddr("172.16.0.2")
	dstX = netip.MustParseAddr("10.10.0.1")
)

func pkt(t testing.TB, src, dst netip.Addr, size int) []byte {
	t.Helper()
	payload := make([]byte, size)
	buf := wire.NewSerializeBuffer(28, len(payload))
	buf.PushPayload(payload)
	if err := wire.SerializeLayers(buf,
		&wire.IPv4{TTL: 64, Protocol: wire.ProtoUDP, Src: src, Dst: dst},
		&wire.UDP{SrcPort: 1, DstPort: 2},
	); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestTableAdmissionControl(t *testing.T) {
	tbl := NewTable()
	f1 := FlowID{Src: srcA, Dst: dstX}
	if err := tbl.Reserve(Reservation{Flow: f1, RateBps: 0.64 * capacityBps}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Reserve(Reservation{Flow: f1, RateBps: 1}); err != ErrDuplicateFlow {
		t.Errorf("duplicate: %v", err)
	}
	f2 := FlowID{Src: srcB, Dst: dstX}
	if err := tbl.Reserve(Reservation{Flow: f2, RateBps: 0.64 * capacityBps}); err != ErrNoCapacity {
		t.Errorf("over capacity: %v", err)
	}
	if err := tbl.Reserve(Reservation{Flow: f2, RateBps: 0.36 * capacityBps}); err != nil {
		t.Errorf("within capacity: %v", err)
	}
	if len(tbl.flows) != 2 || tbl.used != capacityBps {
		t.Errorf("len=%d used=%v", len(tbl.flows), tbl.used)
	}
}

func TestFlowOf(t *testing.T) {
	f, err := FlowOf(pkt(t, srcA, dstX, 10))
	if err != nil || f.Src != srcA || f.Dst != dstX {
		t.Errorf("FlowOf = %v, %v", f, err)
	}
	if _, err := FlowOf([]byte{1}); err == nil {
		t.Error("short packet should fail")
	}
}

// TestAnonymizedFlowsCollapse demonstrates the §3.4 problem: behind the
// anycast address, distinct customer flows are indistinguishable to an
// RSVP router, so per-flow guarantees cannot be expressed — while with
// dynamic addresses they can.
func TestAnonymizedFlowsCollapse(t *testing.T) {
	anycast := netip.MustParseAddr("10.200.0.1")
	outside := srcA

	// Two different customers' return traffic, anonymized: identical FlowID.
	f1, _ := FlowOf(pkt(t, anycast, outside, 10))
	f2, _ := FlowOf(pkt(t, anycast, outside, 10))
	if f1 != f2 {
		t.Fatal("sanity: anonymized flows should collapse")
	}
	tbl := NewTable()
	if err := tbl.Reserve(Reservation{Flow: f1, RateBps: 1000}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Reserve(Reservation{Flow: f2, RateBps: 1000}); err != ErrDuplicateFlow {
		t.Errorf("second anonymized flow: err = %v, want ErrDuplicateFlow", err)
	}

	// With per-flow dynamic addresses the flows are distinct.
	dyn1 := netip.MustParseAddr("10.250.0.1")
	dyn2 := netip.MustParseAddr("10.250.0.2")
	g1, _ := FlowOf(pkt(t, dyn1, outside, 10))
	g2, _ := FlowOf(pkt(t, dyn2, outside, 10))
	if g1 == g2 {
		t.Fatal("dynamic addresses must separate flows")
	}
	if err := tbl.Reserve(Reservation{Flow: g1, RateBps: 1000}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Reserve(Reservation{Flow: g2, RateBps: 1000}); err != nil {
		t.Fatal(err)
	}
	if len(tbl.flows) != 3 {
		t.Errorf("reservations = %d", len(tbl.flows))
	}
}
