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

// TestProberInstrument pins the prober's registry families to its own
// trial ledger on a lossless path, mid-run as well as after it: the
// recorder samples these families at every barrier, so they must equal
// the ledger sums at any instant, not only at the end.
func TestProberInstrument(t *testing.T) {
	sim := netem.NewSimulator(time.Date(2006, 11, 1, 0, 0, 0, 0, time.UTC), 9)
	src := sim.MustAddNode("src", "", netip.MustParseAddr("172.16.0.2"))
	r := sim.MustAddNode("r", "")
	dst := sim.MustAddNode("dst", "", netip.MustParseAddr("10.9.0.1"))
	sim.Connect(src, r, netem.LinkConfig{Delay: time.Millisecond, QueueLen: 1024})
	sim.Connect(r, dst, netem.LinkConfig{Delay: time.Millisecond, QueueLen: 1024})
	sim.BuildRoutes()

	var p *Prober
	emit := func(role Role, trial int, size int) {
		payload := make([]byte, size)
		PutProbePayload(payload, role, trial, sim.NowNanos())
		pkt, err := wire.AppendUDP(nil, src.Addr(), dst.Addr(), 9000, 9001, payload)
		if err != nil {
			t.Fatal(err)
		}
		_ = src.Send(pkt)
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
	// check compares every family with the ledger at this instant and
	// returns the per-role ledger sums.
	check := func(when string, wantTrials uint64) (sent, delivered [NumRoles]uint64) {
		t.Helper()
		rep := p.Report(3, false)
		snap := reg.Snapshot()
		get := func(name string) uint64 {
			m := snap.Get(name)
			if m == nil {
				t.Fatalf("registry missing %s", name)
			}
			return uint64(m.Value)
		}
		if got := get(`audit_probe_trials_total{vantage="3"}`); got != wantTrials {
			t.Errorf("%s: trials family = %d, want %d", when, got, wantTrials)
		}
		for role := Role(0); role < NumRoles; role++ {
			var pkts uint64
			for _, tr := range rep.Trials {
				sent[role] += tr.Sent[role]
				delivered[role] += tr.Delivered[role]
				pkts += tr.DelayPkts[role]
			}
			label := `{vantage="3",role="` + role.String() + `"}`
			if got := get("audit_probe_sent_bytes_total" + label); got != sent[role] {
				t.Errorf("%s: %v sent bytes family = %d, ledger says %d", when, role, got, sent[role])
			}
			if got := get("audit_probe_delivered_bytes_total" + label); got != delivered[role] {
				t.Errorf("%s: %v delivered bytes family = %d, ledger says %d", when, role, got, delivered[role])
			}
			if got := get("audit_probe_delivered_packets_total" + label); got != pkts {
				t.Errorf("%s: %v delivered packets family = %d, ledger says %d", when, role, got, pkts)
			}
			if sent[role] == 0 || delivered[role] == 0 || pkts == 0 {
				t.Errorf("%s: %v degenerate ledger: sent=%d delivered=%d pkts=%d", when, role, sent[role], delivered[role], pkts)
			}
		}
		return sent, delivered
	}

	if got := p.CompletedTrials(); got != 0 {
		t.Fatalf("CompletedTrials before Run = %d, want 0", got)
	}
	p.Run()
	sim.RunFor(p.Duration() / 2)
	midSent, midDelivered := check("mid-run", 6)
	sim.Run()
	endSent, endDelivered := check("after run", 12)
	for role := Role(0); role < NumRoles; role++ {
		if midSent[role] >= endSent[role] || midDelivered[role] >= endDelivered[role] {
			t.Errorf("%v: mid-run sums (%d sent, %d delivered) not below final (%d, %d)",
				role, midSent[role], midDelivered[role], endSent[role], endDelivered[role])
		}
	}
}

// TestVerdictMetrics pins the verdict tallies to the summary they read.
func TestVerdictMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s := &Summary{Verdicts: []Verdict{{Discriminated: true}, {}, {}}}
	s.Instrument(reg)
	tally := func(verdict string) float64 {
		m := reg.Snapshot().Get(`audit_verdicts_total{verdict="` + verdict + `"}`)
		if m == nil {
			t.Fatalf("registry missing the %s tally", verdict)
		}
		return m.Value
	}
	if got := tally("discriminated"); got != 1 {
		t.Errorf("discriminated tally = %v, want 1", got)
	}
	if got := tally("clean"); got != 2 {
		t.Errorf("clean tally = %v, want 2", got)
	}
	s.Verdicts = append(s.Verdicts, Verdict{Discriminated: true})
	if got := tally("discriminated"); got != 2 {
		t.Errorf("discriminated tally after a fourth verdict = %v, want 2", got)
	}
}
