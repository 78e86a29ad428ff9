// Quickstart: the smallest end-to-end use of the public API.
//
// An outside client (Ann) performs key setup with a neutralizer, then
// exchanges messages with a protected customer (Google) whose address
// never appears on Ann's side of the border. Everything runs in-process
// with a synchronous toy wire, so the protocol mechanics are easy to
// follow.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"net/netip"
	"time"

	"netneutral"
	"netneutral/internal/wire"
)

func main() {
	var (
		anycast  = netip.MustParseAddr("10.200.0.1")
		annAddr  = netip.MustParseAddr("172.16.1.10")
		googAddr = netip.MustParseAddr("10.10.0.5")
		custNet  = netip.MustParsePrefix("10.10.0.0/16")
	)

	// 1. The supportive ISP deploys a neutralizer. Replicas would share
	//    the same schedule — that is the whole anycast trick.
	sched := netneutral.NewKeySchedule(netneutral.MasterKey{42}, time.Now(), time.Hour)
	neut, err := netneutral.NewNeutralizer(netneutral.NeutralizerConfig{
		Schedule:   sched,
		Anycast:    anycast,
		IsCustomer: func(a netip.Addr) bool { return custNet.Contains(a) },
	})
	if err != nil {
		log.Fatal(err)
	}

	// 2. A toy wire: packets to the anycast address go through the
	//    neutralizer; everything else is delivered to its destination.
	//    Outputs alias the scratch until its next Reset. This wire
	//    recurses (a delivery can trigger a reply mid-loop), so it never
	//    resets; a real worker resets once per packet or batch.
	scratch := netneutral.NewScratch()
	hosts := map[netip.Addr]*netneutral.Host{}
	var route func(pkt []byte) error
	route = func(pkt []byte) error {
		_, dst, err := wire.IPv4Addrs(pkt)
		if err != nil {
			return err
		}
		if dst == anycast {
			outs, err := neut.ProcessScratch(scratch, pkt)
			if err != nil {
				return err
			}
			for _, o := range outs {
				if err := route(o.Pkt); err != nil {
					return err
				}
			}
			return nil
		}
		if h, ok := hosts[dst]; ok {
			h.HandlePacket(time.Now(), pkt)
		}
		return nil
	}

	mkHost := func(addr netip.Addr, name string) *netneutral.Host {
		id, err := netneutral.NewIdentity(0)
		if err != nil {
			log.Fatal(err)
		}
		h, err := netneutral.NewHost(netneutral.HostConfig{
			Addr:      addr,
			Identity:  id,
			Transport: route,
			OnData: func(peer netip.Addr, data []byte) {
				fmt.Printf("[%s] received %q (peer %v)\n", name, data, peer)
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		hosts[addr] = h
		return h
	}
	ann := mkHost(annAddr, "ann")
	google := mkHost(googAddr, "google")
	google.SetOnData(func(peer netip.Addr, data []byte) {
		fmt.Printf("[google] received %q — replying\n", data)
		if err := google.Send(peer, []byte("hi ann, love, google")); err != nil {
			log.Fatal(err)
		}
	})

	// 3. Figure 2(a): key setup. Ann ends up with (nonce, Ks) that the
	//    stateless neutralizer can re-derive from any of her packets.
	if err := ann.Setup(anycast); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("[ann] conduit established: %v (provisional: %v)\n",
		ann.HasConduit(anycast), ann.ConduitProvisional(anycast))

	// 4. Figure 2(b): data through the neutralizer. The destination
	//    address travels encrypted; the reply returns the key grant.
	if err := ann.Connect(anycast, googAddr, google.Identity()); err != nil {
		log.Fatal(err)
	}
	if err := ann.Send(googAddr, []byte("hello google, love, ann")); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("[ann] conduit provisional after reply: %v (short-RSA key retired)\n",
		ann.ConduitProvisional(anycast))

	s := neut.Stats()
	fmt.Printf("[neutralizer] setups=%d data=%d returns=%d grants=%d (per-flow state: %d)\n",
		s.KeySetups.Load(), s.DataForwarded.Load(), s.ReturnForwarded.Load(),
		s.GrantsStamped.Load(), neut.DynAddrCount())
}
