package netem

import (
	"fmt"
	"testing"
	"time"

	"netneutral/internal/obs"
)

// runTraceWorld drives a sharded fan-out shaped so every attribution
// component is exercised — rate-limited queued links (queue wait and
// serialization), propagation delays, and a cause-tagged policing hook
// on transit — with a flow-complete flight recorder (SampleFlows 1, no
// eviction), so every journey is recorded end to end.
func runTraceWorld(t testing.TB, workers int) []obs.TraceRec {
	t.Helper()
	sim := NewSimulator(simStart, 21)
	f, err := BuildFanout(sim, FanoutSpec{
		Hosts: 64, HostsPerEdge: 16, Outside: 1,
		ShardSubtrees: true,
		HostLink:      LinkConfig{Delay: 800 * time.Microsecond},
		EdgeLink:      LinkConfig{Delay: 1200 * time.Microsecond, RateBps: 20e6, QueueLen: 128},
		TransitLink:   LinkConfig{Delay: 1500 * time.Microsecond, RateBps: 40e6, QueueLen: 128},
		OutsideLink:   LinkConfig{Delay: 900 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.SetWorkers(workers)
	f.Transit.AddTransitHook(func(time.Time, *Node, []byte) Verdict {
		return Verdict{Delay: 750 * time.Microsecond, Cause: CauseClassDelay, Class: 2}
	})
	fr := obs.NewFlightRecorder(obs.FlightConfig{
		SampleEvery: 64, RingSize: 1 << 14, SampleFlows: 1,
	})
	sim.AttachFlightRecorder(fr)
	// One same-instant burst to every host: the shared links saturate, so
	// later packets accrue real queue wait on top of serialization.
	for i := 0; i < 64; i++ {
		if err := f.Outside[0].Send(mkUDP(t, f.OutsideAddr(0), f.HostAddr(i), []byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run()
	if ev := fr.Evicted(); ev != 0 {
		t.Fatalf("ring evicted %d events; grow RingSize so journeys stay intact", ev)
	}
	return fr.Events()
}

// TestTraceAttributionSumInvariant is the tentpole invariant at the
// engine level: on a fully recorded journey, the per-hop attributed
// components (queue wait, serialization, propagation, policy delay,
// processing) sum exactly — not approximately — to the end-to-end
// virtual delay, at workers 1 and 4 alike. It also requires each
// physical component and the cause-tagged policy delay to actually
// appear, so the invariant cannot pass on a degenerate world.
func TestTraceAttributionSumInvariant(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			evs := runTraceWorld(t, workers)
			var journeys int
			var queue, ser, prop, policy int64
			for _, sp := range obs.AssembleSpans(evs) {
				for i := range sp.Journeys {
					j := &sp.Journeys[i]
					if !j.Complete() {
						t.Fatalf("flow %016x journey %d recorded incompletely despite lossless tracing", sp.Flow, j.ID)
					}
					if sum, e2e := j.AttrSumNanos(), j.EndToEndNanos(); sum != e2e {
						t.Fatalf("flow %016x journey %d: components sum to %dns, end-to-end delay %dns",
							sp.Flow, j.ID, sum, e2e)
					}
					journeys++
					for _, h := range j.Hops {
						queue += h.QueueNanos
						ser += h.SerializeNanos
						prop += h.PropagateNanos
						policy += h.PolicyNanos
						if h.PolicyNanos > 0 && (h.Cause != uint8(CauseClassDelay) || h.Class != 2) {
							t.Fatalf("policy delay attributed to cause=%d class=%d, want class-delay/2", h.Cause, h.Class)
						}
					}
				}
			}
			if journeys != 64 {
				t.Fatalf("assembled %d journeys, want 64", journeys)
			}
			if queue == 0 || ser == 0 || prop == 0 || policy == 0 {
				t.Fatalf("degenerate attribution: queue=%d ser=%d prop=%d policy=%d (every component must appear)",
					queue, ser, prop, policy)
			}
		})
	}
}

// TestTraceWorkerIdentity pins that flow-keyed sampling is a pure
// function of flow identity: the merged recorded-event sequence —
// attribution components included — is bit-identical at workers 1
// and 4.
func TestTraceWorkerIdentity(t *testing.T) {
	serial := runTraceWorld(t, 1)
	par := runTraceWorld(t, 4)
	if len(serial) != len(par) {
		t.Fatalf("recorded %d events at 1 worker, %d at 4", len(serial), len(par))
	}
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatalf("event %d diverged:\n workers=1: %+v\n workers=4: %+v", i, serial[i], par[i])
		}
	}
}

// TestSendPacketProcAttribution pins the processing component: a packet
// originated with SendPacketProc carries the endpoint's processing time
// into its journey's Proc attribution, and the journey still sums
// exactly to its end-to-end delay (which includes the proc time, since
// the send event is emitted when processing begins).
func TestSendPacketProcAttribution(t *testing.T) {
	const proc = 300 * time.Microsecond
	sim := NewSimulator(simStart, 1)
	a := sim.MustAddNode("a", "", addr("10.0.0.1"))
	c := sim.MustAddNode("c", "", addr("10.0.1.1"))
	sim.Connect(a, c, LinkConfig{Delay: time.Millisecond})
	sim.BuildRoutes()
	fr := obs.NewFlightRecorder(obs.FlightConfig{SampleEvery: 1, RingSize: 64})
	sim.AttachFlightRecorder(fr)

	pkt := mkUDP(t, addr("10.0.0.1"), addr("10.0.1.1"), []byte{0xAB})
	if err := a.SendPacketProc(a.NewPacket(pkt), proc); err != nil {
		t.Fatal(err)
	}
	sim.Run()

	spans := obs.AssembleSpans(fr.Events())
	if len(spans) != 1 || len(spans[0].Journeys) != 1 {
		t.Fatalf("assembled %d spans, want 1 flow with 1 journey", len(spans))
	}
	j := &spans[0].Journeys[0]
	if j.Hops[len(j.Hops)-1].Kind != obs.KindDeliver {
		t.Fatalf("journey did not end in delivery: %+v", j.Hops)
	}
	var got int64
	for _, h := range j.Hops {
		got += h.ProcNanos
	}
	if got != int64(proc) {
		t.Fatalf("journey Proc total = %dns, want %dns", got, int64(proc))
	}
	if sum, e2e := j.AttrSumNanos(), j.EndToEndNanos(); sum != e2e {
		t.Fatalf("components sum to %dns, end-to-end delay %dns", sum, e2e)
	}
	if want := int64(proc + time.Millisecond); j.EndToEndNanos() != want {
		t.Fatalf("end-to-end = %dns, want proc+propagation = %dns", j.EndToEndNanos(), want)
	}
}
