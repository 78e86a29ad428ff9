package audit

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"netneutral/internal/netem"
	"netneutral/internal/obs"
	"netneutral/internal/wire"
)

// TestProberInstrument pins the prober's registry families against its
// own Report on a lossless path: trials complete, emissions inside
// measured windows are counted, and every delivered probe packet lands
// in the per-role delivery counters.
func TestProberInstrument(t *testing.T) {
	sim := netem.NewSimulator(time.Date(2006, 11, 1, 0, 0, 0, 0, time.UTC), 9)
	src := sim.MustAddNode("src", "out", netip.MustParseAddr("172.16.0.2"))
	r := sim.MustAddNode("r", "transit")
	dst := sim.MustAddNode("dst", "cust", netip.MustParseAddr("10.9.0.1"))
	sim.Connect(src, r, netem.LinkConfig{Delay: time.Millisecond, QueueLen: 1024})
	sim.Connect(r, dst, netem.LinkConfig{Delay: time.Millisecond, QueueLen: 1024})
	sim.BuildRoutes()

	var p *Prober
	emit := func(role Role, trial int, size int) {
		payload := make([]byte, size)
		PutProbePayload(payload, role, trial, sim.NowNanos())
		buf := wire.NewSerializeBuffer(wire.IPv4HeaderLen+wire.UDPHeaderLen, len(payload))
		buf.PushPayload(payload)
		if err := wire.SerializeLayers(buf,
			&wire.IPv4{TTL: 64, Protocol: wire.ProtoUDP, Src: src.Addr(), Dst: dst.Addr()},
			&wire.UDP{SrcPort: 9000, DstPort: 9001},
		); err != nil {
			t.Fatal(err)
		}
		_ = src.Send(buf.Bytes())
	}
	var err error
	p, err = NewProber(ProberConfig{
		On:       sim,
		Rng:      rand.New(rand.NewSource(10)),
		Strategy: StrategyInterleaved,
		Trials:   12,
		Emit:     emit,
	})
	if err != nil {
		t.Fatal(err)
	}
	dst.SetHandler(func(now time.Time, pkt []byte) {
		var ip wire.IPv4
		if ip.DecodeFromBytes(pkt) != nil {
			return
		}
		if len(ip.Payload()) <= wire.UDPHeaderLen {
			return
		}
		p.HandleProbe(now, ip.Payload()[wire.UDPHeaderLen:])
	})

	reg := obs.NewRegistry()
	p.Instrument(reg, 3)
	if got := p.CompletedTrials(); got != 0 {
		t.Fatalf("CompletedTrials before Run = %d, want 0", got)
	}
	p.Run()
	sim.Run()

	rep := p.Report(3, false)
	snap := reg.Snapshot()
	get := func(name string) uint64 {
		m := snap.Get(name)
		if m == nil {
			t.Fatalf("registry missing %s", name)
		}
		return uint64(m.Value)
	}
	if got := get(`audit_probe_trials_total{vantage="3"}`); got != 12 {
		t.Errorf("trials family = %d, want 12", got)
	}
	for role := Role(0); role < NumRoles; role++ {
		var sent, delivered uint64
		for _, tr := range rep.Trials {
			sent += tr.Sent[role]
			delivered += tr.Delivered[role]
		}
		label := `{vantage="3",role="` + role.String() + `"}`
		if got := get("audit_probe_sent_bytes_total" + label); got != sent {
			t.Errorf("%v sent bytes family = %d, report says %d", role, got, sent)
		}
		if got := get("audit_probe_delivered_bytes_total" + label); got != delivered {
			t.Errorf("%v delivered bytes family = %d, report says %d", role, got, delivered)
		}
		if got := get("audit_probe_delivered_packets_total" + label); got == 0 {
			t.Errorf("%v delivered packets family = 0", role)
		}
		if sent == 0 || delivered == 0 {
			t.Errorf("%v degenerate ledger: sent=%d delivered=%d", role, sent, delivered)
		}
	}
}

// TestVerdictMetrics pins the aggregate verdict tallies.
func TestVerdictMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	vm := NewVerdictMetrics(reg)
	vm.Count(Verdict{Discriminated: true})
	vm.Count(Verdict{})
	vm.Count(Verdict{})
	snap := reg.Snapshot()
	if m := snap.Get(`audit_verdicts_total{verdict="discriminated"}`); m == nil || m.Value != 1 {
		t.Errorf("discriminated tally = %+v, want 1", m)
	}
	if m := snap.Get(`audit_verdicts_total{verdict="clean"}`); m == nil || m.Value != 2 {
		t.Errorf("clean tally = %+v, want 2", m)
	}
}
