package tunnel_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	mathrand "math/rand"
	"net/netip"
	"testing"
	"time"

	"netneutral/internal/benchenv"
	"netneutral/internal/core"
	"netneutral/internal/crypto/keys"
	"netneutral/internal/e2e"
	"netneutral/internal/endhost"
	"netneutral/internal/netem"
	"netneutral/internal/obs"
	"netneutral/internal/shim"
	"netneutral/internal/simnet"
	"netneutral/internal/tunnel"
	"netneutral/internal/wire"
)

// The emulator's datagram endpoint is a Conn: the daemon's loop runs on it
// unchanged.
var _ tunnel.Conn = (*simnet.UDPConn)(nil)

var (
	anycast = netip.MustParseAddr("10.200.0.1")
	custNet = netip.MustParsePrefix("10.10.0.0/16")
	ann     = netip.MustParseAddr("172.16.1.10") // the outside host's inner address
	google  = netip.MustParseAddr("10.10.0.5")   // the customer's
)

const (
	linkDelay  = time.Millisecond // every host is one hop from the border node
	messages   = 16               // Ann's messages; Google echoes each
	floodRatio = 10               // hostile datagrams per datagram the conversation sends the daemon
	// floodGap spreads the flood over the conversation: key setup takes two
	// link delays and each echo round trip four.
	floodGap = (2 + 4*messages) * linkDelay / (floodRatio * (2*messages + 2))
	// floodBurst datagrams leave Eve at one instant, floodBurst gaps apart,
	// so that a read at Batch > 1 finds several queued.
	floodBurst = 4
)

// The hostile kinds, each refused by the neutralizer for its own reason.
const (
	truncated = iota // a data packet cut short: malformed
	random           // bytes that are not IPv4: malformed
	stale            // a well-formed packet five epochs ahead
	badBlock         // the current epoch, a random hidden address block
	nKinds
)

// simRun is what one run of the scenario left behind.
type simRun struct {
	delivered []byte // every payload either host received, Google's then Ann's
	stats     core.StatsSnapshot
	peers     int
	sent      [nKinds]int // hostile datagrams, by kind
	reads     int         // socket reads, over all workers; not in the digest
}

func (r simRun) digest() [32]byte {
	return sha256.Sum256(fmt.Appendf(nil, "%+v|%d|%x", r.stats, r.peers, r.delivered))
}

// TestServeUnderSimnet runs Serve on a simnet socket at a border node in
// virtual time. Ann (outside) and Google (a customer) sit on simnet
// sockets of their own and talk through it the way cmd/neutclient does
// over real UDP: register, key setup, data, the return path. Eve floods
// the socket with ten hostile datagrams for every good one. The flood
// leaves the conversation byte-identical and the registry at the two
// legitimate peers, every refusal lands in its own drop counter, and the
// run replays bit-identically for one seed at one or two workers, and
// with batches of four, where a read takes every datagram queued at its
// virtual instant.
func TestServeUnderSimnet(t *testing.T) {
	id, err := e2e.NewIdentity(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 7
	one := tunnel.Options{Workers: 1, Batch: 1}
	quiet := runUnderSimnet(t, id, one, seed, false)
	flooded := runUnderSimnet(t, id, one, seed, true)

	if want := 2 * messages; bytes.Count(quiet.delivered, []byte("message ")) != want {
		t.Fatalf("quiet run delivered %q, want %d payloads", quiet.delivered, want)
	}
	if !bytes.Equal(flooded.delivered, quiet.delivered) {
		t.Fatalf("the flood changed what was delivered:\n%q\nvs\n%q", flooded.delivered, quiet.delivered)
	}
	if quiet.peers != 2 || flooded.peers != 2 {
		t.Fatalf("peers = %d quiet, %d flooded; want the 2 legitimate ones", quiet.peers, flooded.peers)
	}
	s, n := flooded.stats, flooded.sent
	if s.DropMalformed != uint64(n[truncated]+n[random]) || s.DropStaleEpoch != uint64(n[stale]) ||
		s.DropBadAddrBlock != uint64(n[badBlock]) || s.DropNotCustomer != 0 {
		t.Fatalf("drops %+v do not match the flood %v (truncated, random, stale, bad block)", s, n)
	}
	for k, c := range n {
		if c == 0 {
			t.Fatalf("the flood sent no datagram of kind %d: %v", k, n)
		}
	}
	served := s
	served.DropMalformed, served.DropStaleEpoch, served.DropBadAddrBlock = 0, 0, 0
	if served != quiet.stats {
		t.Fatalf("served counters moved under the flood: %+v vs %+v", served, quiet.stats)
	}

	if again := runUnderSimnet(t, id, one, seed, true); again.digest() != flooded.digest() {
		t.Fatalf("one seed, two runs:\n%+v\n%+v", flooded, again)
	}
	for _, opts := range []tunnel.Options{{Workers: 2, Batch: 1}, {Workers: 1, Batch: 4}, {Workers: 2, Batch: 4}} {
		got := runUnderSimnet(t, id, opts, seed, true)
		if got.digest() != flooded.digest() {
			t.Fatalf("%+v differs from %+v:\n%+v\n%+v", opts, one, flooded, got)
		}
		if opts.Batch > 1 && got.reads >= flooded.reads {
			t.Fatalf("%+v: %d reads, as many as %d at Batch 1: no read took two datagrams", opts, got.reads, flooded.reads)
		}
	}
}

func runUnderSimnet(t *testing.T, id *e2e.Identity, opts tunnel.Options, seed int64, flood bool) (r simRun) {
	t.Helper()
	sim := netem.NewSimulator(benchenv.Start, seed)
	border := sim.MustAddNode("border", "", netip.MustParseAddr("192.0.2.1"))
	link := func(name string, a netip.Addr) *netem.Node {
		node := sim.MustAddNode(name, "", a)
		sim.Connect(border, node, netem.LinkConfig{Delay: linkDelay, QueueLen: 4096})
		return node
	}
	annNode := link("ann", netip.MustParseAddr("192.0.2.10"))
	googleNode := link("google", netip.MustParseAddr("192.0.2.20"))
	eveNode := link("eve", netip.MustParseAddr("192.0.2.66"))
	sim.BuildRoutes()
	n := simnet.New(sim)
	listen := func(node *netem.Node, port uint16) *simnet.UDPConn {
		c, err := n.ListenUDP(node, port)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	sock := listen(border, 7777)
	daemon := netip.AddrPortFrom(border.Addr(), 7777)

	sched := benchenv.NewSchedule()
	neut, err := core.New(core.Config{
		Schedule: sched, Anycast: anycast, IsCustomer: custNet.Contains,
		Clock: n.Now, Rand: mathrand.New(mathrand.NewSource(seed)),
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	tun := tunnel.New(sock, neut, opts, reg)
	served := make(chan error, 1)
	go func() { served <- tun.Serve() }()

	// host puts an endhost on a socket of its own and registers it, as
	// cmd/neutclient does; pump feeds it datagrams until done reports true,
	// or fails after a second of virtual time.
	type delivery struct {
		peer netip.Addr
		data []byte
	}
	host := func(node *netem.Node, addr netip.Addr, id *e2e.Identity, inbox *[]delivery) (*endhost.Host, func(done func() bool) error) {
		conn := listen(node, 0)
		h, err := endhost.NewHost(endhost.Config{
			Addr: addr, Identity: id, Clock: n.Now, Rand: mathrand.New(mathrand.NewSource(seed)),
			Transport: func(pkt []byte) error { _, err := conn.WriteToUDPAddrPort(pkt, daemon); return err },
			OnData:    func(p netip.Addr, data []byte) { *inbox = append(*inbox, delivery{p, bytes.Clone(data)}) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.WriteToUDPAddrPort(tunnel.RegisterFrame(addr), daemon); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 2048)
		return h, func(done func() bool) error {
			conn.SetReadDeadline(n.Now().Add(time.Second))
			for !done() {
				m, _, err := conn.ReadFromUDPAddrPort(buf)
				if err != nil {
					return fmt.Errorf("%v waiting on the daemon: %w", addr, err)
				}
				h.HandlePacket(n.Now(), buf[:m])
			}
			return nil
		}
	}

	var googleGot, annGot []delivery
	googleHost, googlePump := host(googleNode, google, id, &googleGot)
	annHost, annPump := host(annNode, ann, nil, &annGot)
	n.Go(func() {
		for echoed := 0; echoed < messages; echoed++ {
			if err := googlePump(func() bool { return len(googleGot) > echoed }); err != nil {
				t.Error(err)
				return
			}
			d := googleGot[echoed]
			if err := googleHost.Send(d.peer, append([]byte("echo: "), d.data...)); err != nil {
				t.Errorf("google: %v", err)
				return
			}
		}
	})
	n.Go(func() {
		err := annHost.Setup(anycast)
		if err == nil {
			err = annPump(func() bool { return annHost.HasConduit(anycast) })
		}
		if err == nil {
			err = annHost.Connect(anycast, google, id.Public())
		}
		for i := 0; i < messages && err == nil; i++ {
			if err = annHost.Send(google, fmt.Appendf(nil, "message %02d", i)); err == nil {
				err = annPump(func() bool { return len(annGot) > i })
			}
		}
		if err != nil {
			t.Errorf("ann: %v", err)
		}
	})
	if flood {
		eve := listen(eveNode, 0)
		n.Go(func() {
			rng := mathrand.New(mathrand.NewSource(seed))
			for i := 0; i < floodRatio*(2*messages+2); i++ {
				k := rng.Intn(nKinds)
				r.sent[k]++
				if _, err := eve.WriteToUDPAddrPort(hostile(rng, sched, k), daemon); err != nil {
					t.Error(err)
				}
				if i%floodBurst == floodBurst-1 {
					n.Sleep(floodBurst * floodGap)
				}
			}
			n.Sleep(2 * linkDelay) // Run returns with this goroutine: let the last datagrams land
		})
	}
	runErr := n.Run()
	tun.Close()
	if err := <-served; runErr != nil || err != nil {
		t.Fatalf("Run: %v; Serve: %v", runErr, err)
	}
	for _, d := range append(googleGot, annGot...) {
		r.delivered = fmt.Appendf(r.delivered, "%v:%q\n", d.peer, d.data)
	}
	r.stats, r.peers = neut.Stats().Snapshot(), tun.Peers()
	for w := 0; w < opts.Workers; w++ {
		r.reads += int(reg.Snapshot().Get(fmt.Sprintf(`neutralizerd_read_calls_total{worker="%d"}`, w)).Value)
	}
	return r
}

// hostile builds one datagram of kind k. The packets that parse claim
// Ann's inner source: refused, they must not re-point her endpoint.
func hostile(rng *mathrand.Rand, sched *keys.Schedule, k int) []byte {
	epoch := sched.EpochAt(benchenv.Start)
	var nonce keys.Nonce
	rng.Read(nonce[:])
	payload := make([]byte, rng.Intn(200))
	rng.Read(payload)
	if k == stale {
		epoch += 5
	}
	flow, _ := benchenv.NewFlow(sched, epoch, ann, nonce, wire.ProtoUDP)
	hdr, _ := flow.Header(google, [8]byte{})
	if k == badBlock {
		rng.Read(hdr.HiddenAddr[:])
	}
	pkt, _ := shim.BuildPacket(ann, anycast, 0, &hdr, payload)
	switch k {
	case truncated:
		pkt = pkt[:rng.Intn(len(pkt))]
	case random:
		rng.Read(pkt)
		pkt[0] &= 0x0f // IP version 0; never five bytes, so never a control frame
	}
	return pkt
}
