// Integration tests exercising the public facade end to end, including
// the real-UDP deployment path used by cmd/neutralizerd and
// cmd/neutclient.
package netneutral_test

import (
	"net"
	"net/netip"
	"testing"
	"time"

	"netneutral"
	"netneutral/internal/tunnel"
	"netneutral/internal/wire"
)

var (
	itAnycast = netip.MustParseAddr("10.200.0.1")
	itAnn     = netip.MustParseAddr("172.16.1.10")
	itGoogle  = netip.MustParseAddr("10.10.0.5")
	itCustNet = netip.MustParsePrefix("10.10.0.0/16")
)

// TestFacadeInProcessConversation drives the whole protocol through the
// public API with a synchronous in-memory wire.
func TestFacadeInProcessConversation(t *testing.T) {
	sched := netneutral.NewKeySchedule(netneutral.MasterKey{9}, time.Now(), time.Hour)
	neut, err := netneutral.NewNeutralizer(netneutral.NeutralizerConfig{
		Schedule:   sched,
		Anycast:    itAnycast,
		IsCustomer: func(a netip.Addr) bool { return itCustNet.Contains(a) },
	})
	if err != nil {
		t.Fatal(err)
	}
	hosts := map[netip.Addr]*netneutral.Host{}
	var route func(pkt []byte) error
	route = func(pkt []byte) error {
		_, dst, err := wire.IPv4Addrs(pkt)
		if err != nil {
			return err
		}
		if dst == itAnycast {
			outs, err := neut.ProcessScratch(netneutral.NewScratch(), pkt)
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
	mk := func(addr netip.Addr) *netneutral.Host {
		id, err := netneutral.NewIdentity(0)
		if err != nil {
			t.Fatal(err)
		}
		h, err := netneutral.NewHost(netneutral.HostConfig{
			Addr: addr, Identity: id, Transport: route,
		})
		if err != nil {
			t.Fatal(err)
		}
		hosts[addr] = h
		return h
	}
	ann, google := mk(itAnn), mk(itGoogle)

	var got []string
	google.SetOnData(func(peer netip.Addr, data []byte) {
		got = append(got, string(data))
		if err := google.Send(peer, []byte("ack:"+string(data))); err != nil {
			t.Errorf("reply: %v", err)
		}
	})
	var acks []string
	ann.SetOnData(func(_ netip.Addr, data []byte) { acks = append(acks, string(data)) })

	if err := ann.Setup(itAnycast); err != nil {
		t.Fatal(err)
	}
	if !ann.HasConduit(itAnycast) {
		t.Fatal("no conduit")
	}
	if err := ann.Connect(itAnycast, itGoogle, google.Identity()); err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"one", "two", "three"} {
		if err := ann.Send(itGoogle, []byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != 3 || len(acks) != 3 {
		t.Fatalf("messages: got=%v acks=%v", got, acks)
	}
	if ann.ConduitProvisional(itAnycast) {
		t.Error("grant should have retired the provisional key")
	}
	if neut.DynAddrCount() != 0 {
		t.Error("data path created per-flow state")
	}
}

// TestExperimentRegistryRunsF2 spot-checks the facade-exposed experiment
// registry (the full matrix runs in internal/eval's tests).
func TestExperimentRegistryRunsF2(t *testing.T) {
	if len(netneutral.Experiments()) != 21 {
		t.Fatalf("experiments = %d, want 21", len(netneutral.Experiments()))
	}
	exp, ok := netneutral.ExperimentByID("F2")
	if !ok {
		t.Fatal("F2 missing")
	}
	res, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.Measured != "pass" {
			t.Errorf("F2 %q = %s", row.Metric, row.Measured)
		}
	}
}

// TestUDPTunnelDeployment reproduces the neutralizerd/neutclient
// deployment in-process: a neutralizer behind a real UDP socket served
// by the daemon's transport loop (tunnel.Serve), two hosts tunneling
// IPv4-in-UDP through it, full conversation with key refresh. This is
// the paper's system running over the actual network stack.
func TestUDPTunnelDeployment(t *testing.T) {
	sched := netneutral.NewKeySchedule(netneutral.MasterKey{5}, time.Now(), time.Hour)
	neut, err := netneutral.NewNeutralizer(netneutral.NeutralizerConfig{
		Schedule:   sched,
		Anycast:    itAnycast,
		IsCustomer: func(a netip.Addr) bool { return itCustNet.Contains(a) },
	})
	if err != nil {
		t.Fatal(err)
	}
	daemon, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	// The daemon's own loop at the daemon's defaults.
	tun := tunnel.New(daemon, neut, tunnel.Options{Workers: 1, Batch: 1}, nil)
	served := make(chan error, 1)
	go func() { served <- tun.Serve() }()
	defer func() {
		tun.Close()
		if err := <-served; err != nil {
			t.Errorf("Serve after Close: %v", err)
		}
	}()

	mkTunnelHost := func(addr netip.Addr) (*netneutral.Host, *net.UDPConn, *[]string) {
		conn, err := net.DialUDP("udp4", nil, daemon.LocalAddr().(*net.UDPAddr))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		id, err := netneutral.NewIdentity(0)
		if err != nil {
			t.Fatal(err)
		}
		var inbox []string
		h, err := netneutral.NewHost(netneutral.HostConfig{
			Addr:     addr,
			Identity: id,
			Transport: func(pkt []byte) error {
				_, err := conn.Write(pkt)
				return err
			},
			OnData: func(_ netip.Addr, data []byte) { inbox = append(inbox, string(data)) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return h, conn, &inbox
	}
	ann, annConn, annInbox := mkTunnelHost(itAnn)
	google, googleConn, googleInbox := mkTunnelHost(itGoogle)

	// Single-goroutine pumps per host (Host is not concurrency-safe, so
	// each host is driven by exactly one goroutine after setup).
	pump := func(h *netneutral.Host, conn *net.UDPConn, until func() bool) {
		buf := make([]byte, 64<<10)
		deadline := time.Now().Add(5 * time.Second)
		for !until() && time.Now().Before(deadline) {
			_ = conn.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
			n, err := conn.Read(buf)
			if err != nil {
				continue
			}
			h.HandlePacket(time.Now(), buf[:n])
		}
	}

	// Google registers its inner address with a control frame, as
	// neutclient does; Ann's is learned from her first served packet. The
	// key fetch doubles as liveness.
	if _, err := googleConn.Write(tunnel.RegisterFrame(itGoogle)); err != nil {
		t.Fatal(err)
	}
	if err := google.InitiateTo(itAnycast, itAnn, ann.Identity(), nil); err != nil {
		t.Fatal(err)
	}
	pump(google, googleConn, func() bool { return google.Stats().ReverseInits > 0 })

	if err := ann.Setup(itAnycast); err != nil {
		t.Fatal(err)
	}
	pump(ann, annConn, func() bool { return ann.HasConduit(itAnycast) })
	if !ann.HasConduit(itAnycast) {
		t.Fatal("UDP key setup timed out")
	}
	if err := ann.Connect(itAnycast, itGoogle, google.Identity()); err != nil {
		t.Fatal(err)
	}
	if err := ann.Send(itGoogle, []byte("over real sockets")); err != nil {
		t.Fatal(err)
	}
	pump(google, googleConn, func() bool { return len(*googleInbox) > 0 })
	if len(*googleInbox) == 0 || (*googleInbox)[0] != "over real sockets" {
		t.Fatalf("google inbox = %v", *googleInbox)
	}
	// Reply path.
	if err := google.Send(itAnn, []byte("ack over sockets")); err != nil {
		t.Fatal(err)
	}
	pump(ann, annConn, func() bool { return len(*annInbox) > 0 })
	// The reverse-init earlier may have already delivered data; accept
	// either ordering but require the ack.
	found := false
	for _, m := range *annInbox {
		if m == "ack over sockets" {
			found = true
		}
	}
	if !found {
		t.Fatalf("ann inbox = %v", *annInbox)
	}
}
