package main

import (
	"bytes"
	"net"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"netneutral/internal/core"
	"netneutral/internal/crypto/aesutil"
	"netneutral/internal/crypto/keys"
	"netneutral/internal/tunnel"
)

// lockedBuffer is the serve role's stdout, written by its goroutine and
// read by the test.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestRoundTripThroughTunnel runs the README's round trip in process: a
// neutralizer serving 127.0.0.1 through internal/tunnel, the serve role
// as the customer 10.10.0.5, and the client role outside, which must get
// the echo back and see the reply's grant retire its provisional key.
// Closing the serve role's socket ends it.
func TestRoundTripThroughTunnel(t *testing.T) {
	customers := netip.MustParsePrefix("10.10.0.0/16")
	neut, err := core.New(core.Config{
		Schedule:   keys.NewSchedule(aesutil.Key{1}, time.Unix(0, 0), time.Hour),
		Anycast:    netip.MustParseAddr("10.200.0.1"),
		IsCustomer: customers.Contains,
	})
	if err != nil {
		t.Fatal(err)
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sock, err := tunnel.Socket(pc.(*net.UDPConn))
	if err != nil {
		t.Fatal(err)
	}
	tun := tunnel.New(sock, neut, tunnel.Options{Workers: 1, Batch: 64}, nil)
	go tun.Serve()
	defer tun.Close()
	daemon := pc.LocalAddr().String()

	conns := make(chan net.Conn, 1)
	dial = func(network, addr string) (net.Conn, error) {
		c, err := net.Dial(network, addr)
		if err == nil {
			conns <- c
		}
		return c, err
	}
	var served lockedBuffer
	serveErr := make(chan error, 1)
	go func() { serveErr <- run([]string{"-neut", daemon, "-self", "10.10.0.5", "-serve"}, &served) }()
	serveConn := <-conns
	dial = net.Dial

	const header = "public key (give to clients as -peerkey):\n"
	var key string
	for deadline := time.Now().Add(10 * time.Second); key == "" && time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if _, rest, ok := strings.Cut(served.String(), header); ok {
			key, _, _ = strings.Cut(rest, "\n")
		}
	}
	if key == "" {
		t.Fatalf("serve role printed no public key:\n%s", served.String())
	}

	var out bytes.Buffer
	if err := run([]string{"-neut", daemon, "-self", "172.16.1.10", "-peer", "10.10.0.5", "-peerkey", key,
		"-send", "hi", "-wait", "10s"}, &out); err != nil {
		t.Fatalf("client role: %v\nclient printed:\n%s\nserver printed:\n%s", err, out.String(), served.String())
	}
	for _, want := range []string{`reply from 10.10.0.5: "echo: hi"`, "provisional after reply: false"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("client output lacks %q:\n%s", want, out.String())
		}
	}

	serveConn.Close()
	select {
	case err := <-serveErr:
		if err != nil {
			t.Errorf("serve role: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve role did not return after its socket closed")
	}
	if want := `from 172.16.1.10: "hi" — echoing`; !strings.Contains(served.String(), want) {
		t.Errorf("server output lacks %q:\n%s", want, served.String())
	}
}
