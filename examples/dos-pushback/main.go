// DoS pushback: a key-setup flood against the neutralizer (§3.6) and the
// aggregate-based pushback that restores legitimate goodput.
//
// An attacker blasts key-setup packets at ~10x the bottleneck capacity.
// The victim samples its queue drops, identifies the congestion signature
// ("key-setup packets to the service address" — robust to source
// spoofing), and asks the upstream router to rate-limit the aggregate.
//
//	go run ./examples/dos-pushback
//	go run ./examples/dos-pushback -floodrate 20 -limit 5000
package main

import (
	"flag"
	"fmt"
	"log"
	"net/netip"
	"time"

	"netneutral/internal/crypto/keys"
	"netneutral/internal/netem"
	"netneutral/internal/pushback"
	"netneutral/internal/shim"
	"netneutral/internal/wire"
)

var (
	start    = time.Date(2006, 11, 1, 0, 0, 0, 0, time.UTC)
	atkAddr  = netip.MustParseAddr("192.0.2.1")
	goodAddr = netip.MustParseAddr("172.16.1.10")
	upAddr   = netip.MustParseAddr("172.16.0.1")
	victim   = netip.MustParseAddr("10.200.0.1")
)

func main() {
	floodRate := flag.Int("floodrate", 10, "attack setups per millisecond")
	limit := flag.Float64("limit", 10_000, "pushback rate limit for the aggregate (bps)")
	flag.Parse()

	sim := netem.NewSimulator(start, 3)
	atk := sim.MustAddNode("attacker", "att", atkAddr)
	good := sim.MustAddNode("good-user", "att", goodAddr)
	up := sim.MustAddNode("upstream", "att", upAddr)
	vic := sim.MustAddNode("neutralizer", "cogent", victim)
	sim.Connect(atk, up, netem.LinkConfig{Delay: time.Millisecond})
	sim.Connect(good, up, netem.LinkConfig{Delay: time.Millisecond})
	bottleneck := sim.Connect(up, vic, netem.LinkConfig{Delay: time.Millisecond, RateBps: 800_000})
	sim.BuildRoutes()

	// The victim samples what its bottleneck's egress queue refuses.
	det := pushback.NewDetector(8192)
	if err := bottleneck.SetQueue(up, det.WatchQueue(netem.NewFIFOQueue(16))); err != nil {
		log.Fatal(err)
	}
	received := map[shim.Type]int{}
	vic.SetHandler(func(_ time.Time, pkt []byte) {
		if t, ok := shim.PeekType(pkt[wire.IPv4HeaderLen:]); ok {
			received[t]++
		}
	})

	flood := mustShim(atkAddr, victim, &shim.Header{
		Type: shim.TypeKeySetupRequest, PublicKey: make([]byte, 66)})
	goodPkt := mustShim(goodAddr, victim, &shim.Header{
		Type: shim.TypeData, Nonce: keys.Nonce{1}})

	inject := func() {
		for i := 0; i < 500; i++ {
			sim.Schedule(time.Duration(i)*time.Millisecond, func() {
				for j := 0; j < *floodRate; j++ {
					_ = atk.Send(flood)
				}
			})
		}
		for i := 0; i < 50; i++ {
			sim.Schedule(time.Duration(i*10)*time.Millisecond, func() { _ = good.Send(goodPkt) })
		}
	}

	fmt.Printf("phase 1: flood at %d setups/ms into an 800 kbps bottleneck\n", *floodRate)
	inject()
	sim.RunFor(500 * time.Millisecond)
	fmt.Printf("  legitimate data delivered: %d/50\n", received[shim.TypeData])
	fmt.Printf("  drop samples collected at victim: %d\n\n", det.SampleCount())

	ctrl := &pushback.Controller{Detector: det, Upstream: []*netem.Node{up},
		LimitBps: *limit, Lifetime: time.Hour}
	if !ctrl.MaybePush(sim.Now(), 0.5) {
		log.Fatal("pushback found no dominant aggregate")
	}
	fmt.Println("phase 2: pushback deployed upstream (signature: key-setups to the service)")
	received[shim.TypeData] = 0
	inject()
	sim.RunFor(500 * time.Millisecond)
	fmt.Printf("  legitimate data delivered: %d/50\n", received[shim.TypeData])
	var drops uint64
	for _, l := range ctrl.Limiters() {
		drops += l.Dropped
	}
	fmt.Printf("  flood packets shed upstream: %d\n", drops)
}

func mustShim(src, dst netip.Addr, sh *shim.Header) []byte {
	buf := wire.NewSerializeBuffer(96, 0)
	if err := wire.SerializeLayers(buf,
		&wire.IPv4{TTL: 64, Protocol: wire.ProtoShim, Src: src, Dst: dst},
		sh,
	); err != nil {
		log.Fatal(err)
	}
	return buf.Bytes()
}
