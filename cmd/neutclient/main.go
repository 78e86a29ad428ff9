// Command neutclient exercises a running neutralizerd over real UDP:
// key setup, hidden-destination data, and the return path.
//
// Run a customer-side echo server (Google's role):
//
//	neutclient -neut 127.0.0.1:7777 -self 10.10.0.5 -serve
//
// Then talk to it from the outside (Ann's role), naming the peer only in
// the encrypted shim — the daemon never sees the destination in clear:
//
//	neutclient -neut 127.0.0.1:7777 -self 172.16.1.10 \
//	    -peer 10.10.0.5 -peerkey <hex from the server's output> \
//	    -send "hello through the neutralizer"
//
// The Host state machine is not concurrency-safe, so the client drives
// everything — socket reads included — from a single goroutine.
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"log"
	"net"
	"net/netip"
	"os"
	"time"

	"netneutral"
	"netneutral/internal/e2e"
	"netneutral/internal/tunnel"
)

type delivery struct {
	peer netip.Addr
	data []byte
}

func main() {
	neutAddr := flag.String("neut", "127.0.0.1:7777", "neutralizerd UDP address")
	anycast := flag.String("anycast", "10.200.0.1", "neutralizer anycast address (inner IPv4)")
	self := flag.String("self", "", "this host's inner IPv4 address (required)")
	peer := flag.String("peer", "", "peer inner IPv4 address (client mode)")
	peerKey := flag.String("peerkey", "", "peer public key, hex (client mode; from server output)")
	msg := flag.String("send", "hello", "message to send (client mode)")
	serve := flag.Bool("serve", false, "run as a customer-side echo server")
	wait := flag.Duration("wait", 3*time.Second, "client: how long to wait for each phase")
	flag.Parse()

	if *self == "" {
		log.Fatal("neutclient: -self is required")
	}
	selfAddr, err := netip.ParseAddr(*self)
	if err != nil {
		log.Fatalf("neutclient: bad -self: %v", err)
	}
	anyAddr, err := netip.ParseAddr(*anycast)
	if err != nil {
		log.Fatalf("neutclient: bad -anycast: %v", err)
	}

	conn, err := net.Dial("udp", *neutAddr)
	if err != nil {
		log.Fatalf("neutclient: dial: %v", err)
	}
	defer conn.Close()

	// Register our inner address with the daemon (control frame).
	if _, err := conn.Write(tunnel.RegisterFrame(selfAddr)); err != nil {
		log.Fatalf("neutclient: register: %v", err)
	}

	id, err := netneutral.NewIdentity(0)
	if err != nil {
		log.Fatal(err)
	}
	var inbox []delivery
	host, err := netneutral.NewHost(netneutral.HostConfig{
		Addr:      selfAddr,
		Identity:  id,
		Transport: func(pkt []byte) error { _, err := conn.Write(pkt); return err },
		OnData: func(p netip.Addr, data []byte) {
			inbox = append(inbox, delivery{p, append([]byte(nil), data...)})
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// pump reads datagrams into the host until deadline or until stop()
	// reports true; single goroutine, so the Host never races.
	buf := make([]byte, 64<<10)
	pump := func(deadline time.Time, stop func() bool) {
		for !stop() && time.Now().Before(deadline) {
			_ = conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
			n, err := conn.Read(buf)
			if err != nil {
				continue // deadline tick
			}
			host.HandlePacket(time.Now(), buf[:n])
		}
	}

	if *serve {
		fmt.Printf("serving as %v via %s\n", selfAddr, *neutAddr)
		fmt.Printf("public key (give to clients as -peerkey):\n%s\n", hex.EncodeToString(id.Public().Marshal()))
		for {
			pump(time.Now().Add(time.Hour), func() bool { return len(inbox) > 0 })
			for _, m := range inbox {
				fmt.Printf("from %v: %q — echoing\n", m.peer, m.data)
				if err := host.Send(m.peer, append([]byte("echo: "), m.data...)); err != nil {
					log.Printf("echo: %v", err)
				}
			}
			inbox = inbox[:0]
		}
	}

	// Client mode.
	if *peer == "" || *peerKey == "" {
		log.Fatal("neutclient: client mode needs -peer and -peerkey")
	}
	peerAddr, err := netip.ParseAddr(*peer)
	if err != nil {
		log.Fatalf("neutclient: bad -peer: %v", err)
	}
	pkb, err := hex.DecodeString(*peerKey)
	if err != nil {
		log.Fatalf("neutclient: bad -peerkey: %v", err)
	}
	pub, err := e2e.UnmarshalPublicKey(pkb)
	if err != nil {
		log.Fatalf("neutclient: bad -peerkey: %v", err)
	}

	if err := host.Setup(anyAddr); err != nil {
		log.Fatalf("neutclient: setup: %v", err)
	}
	pump(time.Now().Add(*wait), func() bool { return host.HasConduit(anyAddr) })
	if !host.HasConduit(anyAddr) {
		log.Fatal("neutclient: key setup timed out")
	}
	fmt.Printf("conduit established with %v (provisional=%v)\n", anyAddr, host.ConduitProvisional(anyAddr))

	if err := host.Connect(anyAddr, peerAddr, pub); err != nil {
		log.Fatalf("neutclient: connect: %v", err)
	}
	if err := host.Send(peerAddr, []byte(*msg)); err != nil {
		log.Fatalf("neutclient: send: %v", err)
	}
	pump(time.Now().Add(*wait), func() bool { return len(inbox) > 0 })
	if len(inbox) == 0 {
		log.Fatal("neutclient: no reply")
	}
	fmt.Printf("reply from %v: %q\n", inbox[0].peer, inbox[0].data)
	fmt.Printf("conduit provisional after reply: %v (grant applied)\n", host.ConduitProvisional(anyAddr))
	os.Exit(0)
}
