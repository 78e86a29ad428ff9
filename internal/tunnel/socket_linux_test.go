//go:build linux && (amd64 || arm64)

package tunnel

import (
	"bytes"
	"errors"
	"net"
	"net/netip"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
)

// Ten datagrams queued before the first read, one of them the largest a
// UDP datagram can be, come back whole and in order from one recvmmsg,
// each with its source.
func TestSocketReadBatch(t *testing.T) {
	sock, daemon := loopback(t)
	a, b := listenLoopback(t), listenLoopback(t)
	var sent [][]byte
	var srcs []netip.AddrPort
	for i := 0; i < 10; i++ {
		p := bytes.Repeat([]byte{byte(i)}, 64)
		if i == 5 {
			p = bytes.Repeat([]byte{5}, 65507)
		}
		c := []*net.UDPConn{a, b}[i%2]
		if _, err := c.WriteToUDPAddrPort(p, daemon); err != nil {
			t.Fatal(err)
		}
		sent, srcs = append(sent, p), append(srcs, c.LocalAddr().(*net.UDPAddr).AddrPort())
	}
	bufs, n, from := make([][]byte, 16), make([]int, 16), make([]netip.AddrPort, 16)
	for i := range bufs {
		bufs[i] = make([]byte, 64<<10)
	}
	got, err := sock.ReadBatch(bufs, n, from)
	if err != nil || got != 10 {
		t.Fatalf("one read of 10 queued datagrams returned %d, %v", got, err)
	}
	for i := 0; i < got; i++ {
		if !bytes.Equal(bufs[i][:n[i]], sent[i]) || from[i] != srcs[i] {
			t.Errorf("datagram %d: %d bytes from %v, want %d from %v", i, n[i], from[i], len(sent[i]), srcs[i])
		}
	}
}

// A datagram the kernel refuses (port 0: EINVAL) is reported on its own;
// the ones around it are sent, in order, to either form of an IPv4
// address.
func TestSocketWriteBatch(t *testing.T) {
	sock, _ := loopback(t)
	dst := listenLoopback(t)
	dst.SetReadDeadline(time.Now().Add(time.Minute))
	ap := dst.LocalAddr().(*net.UDPAddr).AddrPort()
	mapped := netip.AddrPortFrom(netip.AddrFrom16(ap.Addr().As16()), ap.Port())
	errs := make([]error, 3)
	sock.WriteBatch([][]byte{[]byte("first"), []byte("refused"), []byte("third")},
		[]netip.AddrPort{ap, netip.AddrPortFrom(ap.Addr(), 0), mapped}, errs)
	if errs[0] != nil || errs[1] == nil || errs[2] != nil {
		t.Fatalf("errors %v, want only the second", errs)
	}
	buf := make([]byte, 64)
	for _, want := range []string{"first", "third"} {
		if n, _, err := dst.ReadFromUDPAddrPort(buf); err != nil || string(buf[:n]) != want {
			t.Fatalf("read %q, %v; want %q", buf[:n], err, want)
		}
	}
}

// On a dual-stack socket an IPv4 peer registers, and is answered, under
// the IPv4-mapped endpoint ReadFromUDPAddrPort reports for it; either
// form of its address can be written to.
func TestSocketDualStack(t *testing.T) {
	listen6 := func() *net.UDPConn {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv6unspecified})
		if err != nil {
			t.Skipf("no dual-stack socket: %v", err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	at := func(c *net.UDPConn) netip.AddrPort {
		return netip.AddrPortFrom(netip.MustParseAddr("127.0.0.1"), c.LocalAddr().(*net.UDPAddr).AddrPort().Port())
	}
	e := env(t)
	ref, c6 := listen6(), listen6()
	sock, err := Socket(c6)
	if err != nil {
		t.Fatal(err)
	}
	out, cust := listenLoopback(t), listenLoopback(t)
	for _, c := range []*net.UDPConn{out, cust} {
		c.SetReadDeadline(time.Now().Add(time.Minute))
	}
	// What the net package reports for the customer on such a socket.
	ref.SetReadDeadline(time.Now().Add(time.Minute))
	if _, err := cust.WriteToUDPAddrPort([]byte("hello"), at(ref)); err != nil {
		t.Fatal(err)
	}
	_, want, err := ref.ReadFromUDPAddrPort(make([]byte, 8))
	if err != nil || !want.Addr().Is4In6() {
		t.Fatalf("ReadFromUDPAddrPort on [::]: %v, %v", want, err)
	}

	tun := New(sock, neutralizer(t), Options{Workers: 1, Batch: 64}, nil)
	done := make(chan error, 1)
	go func() { done <- tun.Serve() }()
	buf := make([]byte, 2048)
	for _, step := range []struct {
		from, to *net.UDPConn
		pkt      []byte
	}{{cust, nil, RegisterFrame(customer)}, {out, cust, e.DataPkt}, {cust, out, e.ReturnPkt}} {
		if _, err := step.from.WriteToUDPAddrPort(step.pkt, at(c6)); err != nil {
			t.Fatal(err)
		}
		if step.to != nil {
			if _, _, err := step.to.ReadFromUDPAddrPort(buf); err != nil {
				t.Fatalf("no answer through the dual-stack socket: %v", err)
			}
		}
	}
	tun.mu.RLock()
	got := tun.peers[customer]
	tun.mu.RUnlock()
	if got != want {
		t.Errorf("customer registered at %v, ReadFromUDPAddrPort says %v", got, want)
	}

	errs := make([]error, 2)
	sock.WriteBatch([][]byte{[]byte("4"), []byte("4in6")}, []netip.AddrPort{
		netip.AddrPortFrom(want.Addr().Unmap(), want.Port()), want}, errs)
	for _, w := range []string{"4", "4in6"} {
		if n, _, err := cust.ReadFromUDPAddrPort(buf); err != nil || string(buf[:n]) != w {
			t.Fatalf("read %q, %v (write errors %v); want %q", buf[:n], err, errs, w)
		}
	}
	stop(t, tun, done)
}

// The shutdown Close begins with wakes a read waiting in the kernel,
// with one slot and with four, and cuts a write short: each
// reports net.ErrClosed, and the loop neither counts nor logs the write.
func TestSocketShutdownWakesReadAndWrite(t *testing.T) {
	for _, slots := range []int{1, 4} {
		sock, _ := loopback(t)
		bufs, n, from := make([][]byte, slots), make([]int, slots), make([]netip.AddrPort, slots)
		for i := range bufs {
			bufs[i] = make([]byte, 64)
		}
		got := make(chan error, 1)
		go func() {
			_, err := sock.ReadBatch(bufs, n, from)
			got <- err
		}()
		waitFor(t, "no read waiting in the kernel", readerInKernel)
		sock.(*socket).shutdown()
		select {
		case err := <-got:
			if !errors.Is(err, net.ErrClosed) {
				t.Fatalf("%d slots: read woken by the shutdown returned %v, want net.ErrClosed", slots, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%d slots: the shutdown did not wake the read in 10s", slots)
		}
		dst := listenLoopback(t).LocalAddr().(*net.UDPAddr).AddrPort()
		errs := make([]error, 2)
		sock.WriteBatch([][]byte{[]byte("a"), []byte("b")}, []netip.AddrPort{dst, dst}, errs)
		if !errors.Is(errs[0], net.ErrClosed) || !errors.Is(errs[1], net.ErrClosed) {
			t.Fatalf("writes on a shut-down socket: %v, want net.ErrClosed", errs)
		}
		sock.Close()
	}
	errs, counted, logged := cutWrite(t, func(c Conn) { c.(*socket).shutdown() })
	if len(errs) != 1 || !errors.Is(errs[0], net.ErrClosed) || counted != 0 || logged != "" {
		t.Fatalf("write errors %v, counted %v, logged %q; want one net.ErrClosed, uncounted and unlogged", errs, counted, logged)
	}
}

// A read on an empty socket waits in the kernel, and returns the one
// datagram that wakes it, with its source; a read with three datagrams
// queued takes all three in one call.
func TestSocketReadWaitsInKernel(t *testing.T) {
	sock, daemon := loopback(t)
	defer sock.Close()
	src := listenLoopback(t)
	bufs, n, from := make([][]byte, 8), make([]int, 8), make([]netip.AddrPort, 8)
	for i := range bufs {
		bufs[i] = make([]byte, 64)
	}
	type read struct {
		k   int
		err error
	}
	got := make(chan read, 1)
	go func() {
		k, err := sock.ReadBatch(bufs, n, from)
		got <- read{k, err}
	}()
	waitFor(t, "no read waiting in the kernel", readerInKernel)
	if _, err := src.WriteToUDPAddrPort([]byte("wake"), daemon); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-got:
		if want := src.LocalAddr().(*net.UDPAddr).AddrPort(); r.err != nil || r.k != 1 || string(bufs[0][:n[0]]) != "wake" || from[0] != want {
			t.Fatalf("the read that waited returned %d (%q from %v), %v; want 1 (\"wake\" from %v)", r.k, bufs[0][:n[0]], from[0], r.err, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a datagram did not wake the read in 10s")
	}

	for _, p := range []string{"a", "b", "c"} {
		if _, err := src.WriteToUDPAddrPort([]byte(p), daemon); err != nil {
			t.Fatal(err)
		}
	}
	k, err := sock.ReadBatch(bufs, n, from)
	if err != nil || k != 3 || string(bufs[0][:n[0]])+string(bufs[1][:n[1]])+string(bufs[2][:n[2]]) != "abc" {
		t.Fatalf("a read with 3 datagrams queued returned %d, %v; want all 3", k, err)
	}
}

// readerInKernel reports whether a goroutine is in a ReadBatch syscall.
func readerInKernel() bool {
	buf := make([]byte, 1<<20)
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "[syscall") && strings.Contains(g, "tunnel.(*socket).ReadBatch") {
			return true
		}
	}
	return false
}

// An endpoint survives the trip through a sockaddr in each form the
// kernel reports: IPv4 (an IPv4-mapped one is written as IPv4), global
// IPv6, and link-local IPv6, whose scope id is its decimal zone.
func TestSockaddrRoundTrip(t *testing.T) {
	for _, c := range []struct {
		in, want string
		scope    uint32
	}{
		{"192.0.2.1:4001", "192.0.2.1:4001", 0},
		{"[::ffff:192.0.2.1]:4001", "192.0.2.1:4001", 0},
		{"[2001:db8::1]:4001", "[2001:db8::1]:4001", 0},
		{"[fe80::1%3]:4001", "[fe80::1%3]:4001", 3},
		{"[fe80::1%250]:4001", "[fe80::1%250]:4001", 250},
	} {
		var sa syscall.RawSockaddrInet6
		putSockaddr(&sa, netip.MustParseAddrPort(c.in))
		if sa.Family == syscall.AF_INET6 && sa.Scope_id != c.scope {
			t.Errorf("%s: scope id %d, want %d", c.in, sa.Scope_id, c.scope)
		}
		if got := addrPort(&sa); got != netip.MustParseAddrPort(c.want) {
			t.Errorf("%s: read back %v, want %s", c.in, got, c.want)
		}
	}
}

// Neither direction allocates below interface index 100.
func TestSockaddrZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	for _, s := range []string{"192.0.2.1:4001", "[2001:db8::1]:4001", "[fe80::1%3]:4001", "[fe80::1%99]:4001"} {
		ap := netip.MustParseAddrPort(s)
		var sa syscall.RawSockaddrInet6
		if n := testing.AllocsPerRun(100, func() {
			putSockaddr(&sa, ap)
			ap = addrPort(&sa)
		}); n != 0 {
			t.Errorf("%s: %v allocations per round trip", s, n)
		}
	}
}

// Socket takes the conn over: the conn is closed, so its fd has left the
// netpoller's epoll set and no datagram wakes a thread waiting there, and
// the driver reads a blocking duplicate.
func TestSocketLeavesNetpoller(t *testing.T) {
	c := listenLoopback(t)
	sock, err := Socket(c)
	if err != nil {
		t.Fatal(err)
	}
	defer sock.Close()
	if err := c.SetReadDeadline(time.Now()); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("the conn after Socket: %v, want net.ErrClosed", err)
	}
	var flags uintptr
	var e syscall.Errno
	sock.(*socket).rc.Control(func(fd uintptr) { flags, _, e = syscall.Syscall(syscall.SYS_FCNTL, fd, syscall.F_GETFL, 0) })
	if e != 0 || flags&syscall.O_NONBLOCK != 0 {
		t.Fatalf("the driver's fd: flags %#x, %v; want it blocking", flags, e)
	}
}
