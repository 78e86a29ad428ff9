package dnssim_test

import (
	"errors"
	mathrand "math/rand"
	"net/netip"
	"os"
	"testing"
	"time"

	"netneutral/internal/dnssim"
	"netneutral/internal/e2e"
	"netneutral/internal/netem"
	"netneutral/internal/simnet"
)

// TestConnClientOverSimnet exercises the blocking resolver client end to
// end: an ordinary goroutine issues Lookup/LookupEncrypted over a
// simnet.UDPConn and the unmodified Resolver answers over the emulated
// wire, with exact virtual round trips and a virtual read deadline.
func TestConnClientOverSimnet(t *testing.T) {
	start := time.Date(2006, 11, 1, 0, 0, 0, 0, time.UTC)
	clientA := netip.MustParseAddr("172.16.1.10")
	resolverA := netip.MustParseAddr("10.50.0.53")
	googleA := netip.MustParseAddr("10.10.0.5")

	sim := netem.NewSimulator(start, 1)
	cl := sim.MustAddNode("client", "", clientA)
	mid := sim.MustAddNode("mid", "", netip.MustParseAddr("172.16.0.254"))
	res := sim.MustAddNode("resolver", "", resolverA)
	sim.Connect(cl, mid, netem.LinkConfig{Delay: 2 * time.Millisecond})
	sim.Connect(mid, res, netem.LinkConfig{Delay: 3 * time.Millisecond})
	sim.BuildRoutes()

	id, err := e2e.NewIdentity(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := dnssim.NewResolver(res, id)
	r.AddRecord(dnssim.Record{
		Name:         "www.google.com",
		Addr:         googleA,
		Neutralizers: []netip.Addr{netip.MustParseAddr("10.200.0.1")},
		PublicKey:    id.Public(),
	})

	n := simnet.New(sim)
	conn, err := n.ListenUDP(cl, 0)
	if err != nil {
		t.Fatal(err)
	}
	cc := dnssim.NewConnClient(conn, netip.AddrPortFrom(resolverA, dnssim.Port),
		mathrand.New(mathrand.NewSource(7)))

	n.Go(func() {
		t0 := n.Now()
		rec, err := cc.Lookup("www.google.com")
		if err != nil {
			t.Errorf("plain lookup: %v", err)
			return
		}
		if rec.Addr != googleA || len(rec.Neutralizers) != 1 {
			t.Errorf("plain record = %+v", rec)
		}
		// One query + one answer over 2ms+3ms links: exactly 10ms.
		if rtt := n.Now().Sub(t0); rtt != 10*time.Millisecond {
			t.Errorf("lookup rtt = %v, want 10ms", rtt)
		}

		if _, err := cc.Lookup("no.such.name"); !errors.Is(err, dnssim.ErrNoSuchName) {
			t.Errorf("nxdomain err = %v", err)
		}

		rec, err = cc.LookupEncrypted(r.Public(), "www.google.com")
		if err != nil {
			t.Errorf("encrypted lookup: %v", err)
			return
		}
		if rec.Addr != googleA {
			t.Errorf("encrypted record = %+v", rec)
		}
		if _, err := cc.LookupEncrypted(r.Public(), "nope"); !errors.Is(err, dnssim.ErrNoSuchName) {
			t.Errorf("encrypted nxdomain err = %v", err)
		}

		// A query to a port nobody serves times out at the (virtual)
		// deadline.
		conn.SetReadDeadline(n.Now().Add(250 * time.Millisecond))
		dead := dnssim.NewConnClient(conn, netip.AddrPortFrom(resolverA, 5999), nil)
		if _, err := dead.Lookup("x"); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("dead resolver err = %v, want deadline exceeded", err)
		}
	})
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if r.Queries() != 4 || r.EncryptedQueries() != 2 {
		t.Errorf("resolver counters = %d/%d, want 4 total, 2 encrypted", r.Queries(), r.EncryptedQueries())
	}
}
