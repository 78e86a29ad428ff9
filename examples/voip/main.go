// VoIP discrimination: the paper's motivating Vonage story, quantified
// on the fan-out substrate with the app-shaped traffic model.
//
// A broadband ISP degrades traffic addressed to a competitor's VoIP
// server while its own service rides clean. Without the neutralizer the
// competitor's MOS collapses; with it, the classifier cannot find the
// flow and quality is restored. The call is a trafficgen.AppSource VoIP
// flow — the same jittered G.711 shape the E7 arms-race experiment
// fingerprints — crossing a netem.BuildFanout topology: user (outside)
// → discriminatory transit → supportive border (neutralizer) → server.
//
//	go run ./examples/voip                 # defaults: 12% loss, 150ms delay
//	go run ./examples/voip -loss 0.3 -delay 300ms -duration 5s
package main

import (
	"flag"
	"fmt"
	"log"
	mathrand "math/rand"
	"net/netip"
	"time"

	"netneutral"
	"netneutral/internal/e2e"
	"netneutral/internal/endhost"
	"netneutral/internal/isp"
	"netneutral/internal/measure"
	"netneutral/internal/netem"
	"netneutral/internal/trafficgen"
	"netneutral/internal/wire"
)

var start = time.Date(2006, 11, 1, 0, 0, 0, 0, time.UTC)

func main() {
	loss := flag.Float64("loss", 0.12, "targeted drop probability")
	delay := flag.Duration("delay", 150*time.Millisecond, "targeted extra delay")
	duration := flag.Duration("duration", 3*time.Second, "call length (G.711 frames every ~20ms)")
	seed := flag.Int64("seed", 4, "seed for jitter, policy and identities")
	flag.Parse()

	clean := runCall(*duration, 0, 0, false, *seed)
	degraded := runCall(*duration, *loss, *delay, false, *seed)
	cured := runCall(*duration, *loss, *delay, true, *seed)

	fmt.Printf("G.711 call, 160B frames every ~20ms (64 kbps) for %v:\n\n", *duration)
	fmt.Printf("  %-42s MOS %.2f\n", "ISP's own VoIP (undisturbed path):", clean)
	fmt.Printf("  %-42s MOS %.2f\n",
		fmt.Sprintf("competitor, targeted (%.0f%% loss, +%v):", *loss*100, *delay), degraded)
	fmt.Printf("  %-42s MOS %.2f\n", "competitor, neutralized (same rule):", cured)
	fmt.Println("\nMOS scale: 4.3+ excellent, 4.0 good, 3.6 fair, <3.1 users abandon the service.")
}

// runCall stamps out the fan-out world, streams one app-shaped call
// from the outside user to the competitor's server, and returns the
// E-model MOS.
func runCall(duration time.Duration, loss float64, delay time.Duration, neutralized bool, seed int64) float64 {
	sim := netem.NewSimulator(start, seed)
	f, err := netem.BuildFanout(sim, netem.FanoutSpec{Hosts: 1})
	if err != nil {
		log.Fatal(err)
	}
	user, server := f.Outside[0], f.Hosts[0]
	vonage := f.HostAddr(0)

	// The discriminatory transit targets the competitor's server.
	if loss > 0 || delay > 0 {
		policy := isp.NewPolicy(sim.Rand(), isp.Rule{
			Name:   "degrade-competitor",
			Match:  isp.MatchDstAddr(vonage),
			Action: isp.Action{DropProb: loss, Delay: delay},
		})
		f.Transit.AddTransitHook(policy.Hook())
	}

	neut, err := netneutral.NewNeutralizer(netneutral.NeutralizerConfig{
		Schedule:   netneutral.NewKeySchedule(netneutral.MasterKey{7}, start, time.Hour),
		Anycast:    f.Spec.Anycast,
		IsCustomer: f.CustomerNet.Contains,
		Clock:      sim.Now,
		Rand:       mathrand.New(mathrand.NewSource(seed + 1)),
	})
	if err != nil {
		log.Fatal(err)
	}
	scratch := netneutral.NewScratch()
	f.Border.SetHandler(func(_ time.Time, pkt []byte) {
		scratch.Reset()
		outs, err := neut.ProcessScratch(scratch, pkt)
		if err != nil {
			return
		}
		for _, o := range outs {
			_ = f.Border.Send(o.Pkt)
		}
	})

	// Frame accounting: the app source jitters emissions, so delays are
	// measured against each frame's recorded send time.
	var lost measure.LossCounter
	var delays measure.Histogram
	var sentAt []time.Time
	record := func(now time.Time, payload []byte) {
		seq := trafficgen.SeqOf(payload)
		if int(seq) >= len(sentAt) {
			return
		}
		lost.Received++
		delays.Add(now.Sub(sentAt[seq]))
	}
	mkFrame := func(seq uint64, size int) []byte {
		payload := make([]byte, size)
		for i := 0; i < 8; i++ {
			payload[i] = byte(seq >> (8 * (7 - i)))
		}
		lost.Sent++
		sentAt = append(sentAt, sim.Now())
		return payload
	}
	call := trafficgen.AppSource{App: trafficgen.AppVoIP, Rng: mathrand.New(mathrand.NewSource(seed + 2))}

	if !neutralized {
		server.SetHandler(func(now time.Time, pkt []byte) {
			var ip wire.IPv4
			var udp wire.UDP
			if ip.DecodeFromBytes(pkt) == nil && udp.DecodeFromBytes(ip.Payload()) == nil {
				record(now, udp.Payload())
			}
		})
		call.Run(sim, duration, func(seq uint64, size int) {
			payload := mkFrame(seq, size)
			buf := wire.NewSerializeBuffer(wire.IPv4HeaderLen+wire.UDPHeaderLen, len(payload))
			buf.PushPayload(payload)
			_ = wire.SerializeLayers(buf,
				&wire.IPv4{TTL: 64, Protocol: wire.ProtoUDP, Src: user.Addr(), Dst: vonage},
				&wire.UDP{SrcPort: 7078, DstPort: trafficgen.AppVoIP.Port()},
			)
			_ = user.Send(buf.Bytes())
		})
		sim.Run()
	} else {
		mk := func(node *netem.Node, s int64) *endhost.Host {
			id, err := e2e.NewIdentity(mathrand.New(mathrand.NewSource(s)), 0)
			if err != nil {
				log.Fatal(err)
			}
			h, err := endhost.NewHost(endhost.Config{
				Addr:      node.Addr(),
				Transport: func(pkt []byte) error { return node.Send(pkt) },
				Identity:  id,
				Clock:     sim.Now,
				Rand:      mathrand.New(mathrand.NewSource(s)),
			})
			if err != nil {
				log.Fatal(err)
			}
			node.SetHandler(h.HandlePacket)
			return h
		}
		serverHost := mk(server, seed+31)
		userHost := mk(user, seed+32)
		serverHost.SetOnData(func(_ netip.Addr, data []byte) { record(sim.Now(), data) })
		if err := userHost.Setup(f.Spec.Anycast); err != nil {
			log.Fatal(err)
		}
		sim.RunFor(time.Second)
		if err := userHost.Connect(f.Spec.Anycast, vonage, serverHost.Identity()); err != nil {
			log.Fatal(err)
		}
		call.Run(sim, duration, func(seq uint64, size int) {
			_ = userHost.Send(vonage, mkFrame(seq, size))
		})
		sim.Run()
	}
	return measure.MOS(delays.Mean(), lost.Loss())
}
