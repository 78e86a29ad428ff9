package simnet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"os"
	"strings"
	"testing"
	"time"

	"netneutral/internal/netem"
)

var simStart = time.Date(2006, 11, 1, 0, 0, 0, 0, time.UTC)

var (
	clAddr = netip.MustParseAddr("10.0.0.1")
	svAddr = netip.MustParseAddr("10.0.0.2")
)

// pair builds client --5ms-- server and wraps it in a Net.
func pair(t testing.TB) (*Net, *netem.Node, *netem.Node) {
	t.Helper()
	sim := netem.NewSimulator(simStart, 1)
	cl := sim.MustAddNode("cl", "", clAddr)
	sv := sim.MustAddNode("sv", "", svAddr)
	sim.Connect(cl, sv, netem.LinkConfig{Delay: 5 * time.Millisecond, QueueLen: 4096})
	sim.BuildRoutes()
	return New(sim), cl, sv
}

func TestUDPEchoVirtualLatency(t *testing.T) {
	n, cl, sv := pair(t)
	srv, err := n.ListenUDP(sv, 7)
	if err != nil {
		t.Fatal(err)
	}
	n.Go(func() {
		buf := make([]byte, 2048)
		for i := 0; i < 3; i++ {
			m, from, err := srv.ReadFromUDPAddrPort(buf)
			if err != nil {
				t.Errorf("server read: %v", err)
				return
			}
			if _, err := srv.WriteToUDPAddrPort(buf[:m], from); err != nil {
				t.Errorf("server write: %v", err)
				return
			}
		}
	})
	n.Go(func() {
		c, err := n.ListenUDP(cl, 0)
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		buf := make([]byte, 2048)
		for i := 0; i < 3; i++ {
			t0 := n.Now()
			if _, err := c.WriteToUDPAddrPort([]byte("ping"), netip.AddrPortFrom(svAddr, 7)); err != nil {
				t.Errorf("write: %v", err)
				return
			}
			m, _, err := c.ReadFromUDPAddrPort(buf)
			if err != nil || string(buf[:m]) != "ping" {
				t.Errorf("read: %q %v", buf[:m], err)
				return
			}
			// 5ms out + 5ms back, with virtual time frozen while the
			// echo server runs: the RTT is exact.
			if rtt := n.Now().Sub(t0); rtt != 10*time.Millisecond {
				t.Errorf("rtt = %v, want exactly 10ms", rtt)
			}
		}
	})
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestReadDeadline: a parked read fails at its deadline's exact virtual
// instant, and a deadline moved later while the reader is parked wakes
// it at the later instant, not the one it parked under.
func TestReadDeadline(t *testing.T) {
	for _, moveTo := range []time.Duration{0, 80 * time.Millisecond} {
		n, cl, _ := pair(t)
		c, err := n.ListenUDP(cl, 9000)
		if err != nil {
			t.Fatal(err)
		}
		dl := simStart.Add(50 * time.Millisecond)
		if moveTo != 0 {
			n.Go(func() {
				n.Sleep(10 * time.Millisecond)
				dl = simStart.Add(moveTo)
				c.SetReadDeadline(dl)
			})
		}
		n.Go(func() {
			c.SetReadDeadline(dl)
			_, _, err := c.ReadFromUDPAddrPort(make([]byte, 16))
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Errorf("err = %v, want os.ErrDeadlineExceeded", err)
			}
			var ne net.Error
			if !errors.As(err, &ne) || !ne.Timeout() {
				t.Errorf("deadline error must be a net.Error timeout, got %v", err)
			}
			if now := n.Now(); !now.Equal(dl) {
				t.Errorf("moved to +%v: woke at %v, want exactly %v", moveTo, now, dl)
			}
		})
		if err := n.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDeadlineAbortsParkedRead is the net/http abortPendingRead shape: a
// reader is parked with no deadline, then another goroutine slams the
// deadline into the past and the reader must wake immediately.
func TestDeadlineAbortsParkedRead(t *testing.T) {
	n, cl, _ := pair(t)
	c, err := n.ListenUDP(cl, 9000)
	if err != nil {
		t.Fatal(err)
	}
	aLongTimeAgo := time.Unix(1, 0)
	n.Go(func() {
		_, _, err := c.ReadFromUDPAddrPort(make([]byte, 16))
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("aborted read: err = %v, want os.ErrDeadlineExceeded", err)
		}
		if got := n.Now().Sub(simStart); got != 10*time.Millisecond {
			t.Errorf("aborted at +%v, want +10ms", got)
		}
	})
	n.Go(func() {
		n.Sleep(10 * time.Millisecond)
		c.SetReadDeadline(aLongTimeAgo)
	})
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSleepAndWait(t *testing.T) {
	n, _, _ := pair(t)
	var tick time.Time
	flag := false
	n.Go(func() {
		n.Sleep(123 * time.Millisecond)
		tick = n.Now()
		flag = true
	})
	n.Go(func() {
		n.Wait(func() bool { return flag })
		if d := n.Now().Sub(simStart); d != 123*time.Millisecond {
			t.Errorf("Wait released at +%v, want +123ms", d)
		}
	})
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if d := tick.Sub(simStart); d != 123*time.Millisecond {
		t.Errorf("Sleep woke at +%v, want +123ms", d)
	}
}

func TestDeadlockDetected(t *testing.T) {
	n, cl, _ := pair(t)
	c, err := n.ListenUDP(cl, 9000)
	if err != nil {
		t.Fatal(err)
	}
	n.Go(func() {
		// Nothing will ever arrive and no deadline is set.
		_, _, err := c.ReadFromUDPAddrPort(make([]byte, 16))
		if !errors.Is(err, net.ErrClosed) {
			t.Errorf("post-deadlock read err = %v", err)
		}
	})
	err = n.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("Run err = %v, want deadlock report", err)
	}
	c.Close() // unblock the goroutine so the test binary can exit cleanly
}

func TestStreamTransfer(t *testing.T) {
	n, cl, sv := pair(t)
	ln, err := n.ListenStream(sv, 80)
	if err != nil {
		t.Fatal(err)
	}
	const reqSize = 10_000
	n.Go(func() {
		conn, err := ln.Accept()
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		defer conn.Close()
		req := make([]byte, reqSize)
		if _, err := io.ReadFull(conn, req); err != nil {
			t.Errorf("server read: %v", err)
			return
		}
		for i, b := range req {
			if b != byte(i) {
				t.Errorf("corrupt byte %d: %d", i, b)
				return
			}
		}
		if _, err := conn.Write([]byte("ok")); err != nil {
			t.Errorf("server write: %v", err)
		}
	})
	n.Go(func() {
		conn, err := n.DialStream(cl, netip.AddrPortFrom(svAddr, 80))
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		req := make([]byte, reqSize)
		for i := range req {
			req[i] = byte(i)
		}
		if _, err := conn.Write(req); err != nil {
			t.Errorf("client write: %v", err)
			return
		}
		resp := make([]byte, 2)
		if _, err := io.ReadFull(conn, resp); err != nil || string(resp) != "ok" {
			t.Errorf("client read: %q %v", resp, err)
		}
	})
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestStreamEOFAfterClose(t *testing.T) {
	n, cl, sv := pair(t)
	ln, err := n.ListenStream(sv, 80)
	if err != nil {
		t.Fatal(err)
	}
	n.Go(func() {
		conn, err := ln.Accept()
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		got, err := io.ReadAll(conn) // reads until the client's FIN
		if err != nil || string(got) != "all of it" {
			t.Errorf("ReadAll = %q, %v", got, err)
		}
		conn.Close()
	})
	n.Go(func() {
		conn, err := n.DialStream(cl, netip.AddrPortFrom(svAddr, 80))
		if err != nil {
			t.Error(err)
			return
		}
		conn.Write([]byte("all of it"))
		conn.Close()
	})
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
}

// httpOverSim runs one GET through an unmodified net/http client and
// server across the simulated link and returns (status, body, virtual
// duration of the request).
func httpOverSim(t *testing.T) (int, string, time.Duration) {
	t.Helper()
	n, cl, sv := pair(t)
	ln, err := n.ListenStream(sv, 80)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/hello", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "hello %s from the sim\n", r.URL.Query().Get("name"))
	})
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	defer srv.Close()

	var status int
	var body string
	var took time.Duration
	n.Go(func() {
		tr := &http.Transport{
			DialContext: func(_ context.Context, network, addr string) (net.Conn, error) {
				return n.DialStream(cl, netip.AddrPortFrom(svAddr, 80))
			},
			DisableKeepAlives: true,
		}
		client := &http.Client{Transport: tr}
		t0 := n.Now()
		resp, err := client.Get("http://10.0.0.2/hello?name=simnet")
		if err != nil {
			t.Errorf("GET: %v", err)
			return
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Errorf("body: %v", err)
			return
		}
		status, body, took = resp.StatusCode, string(b), n.Now().Sub(t0)
	})
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	return status, body, took
}

func TestHTTPOverSim(t *testing.T) {
	status, body, took := httpOverSim(t)
	if status != 200 || body != "hello simnet from the sim\n" {
		t.Fatalf("GET = %d %q", status, body)
	}
	// Request and response each cross the 5ms link at least once.
	if took < 10*time.Millisecond || took > time.Second {
		t.Errorf("virtual request latency = %v, want ~10ms", took)
	}
	if took%(5*time.Millisecond) != 0 {
		t.Errorf("latency %v is not a multiple of the link delay; real time leaked in", took)
	}
}

// TestHTTPDeterministic runs the same HTTP workload twice on fresh
// simulators and requires identical virtual timing — the bit-identical
// replay contract that makes experiments over simnet reproducible.
func TestHTTPDeterministic(t *testing.T) {
	s1, b1, d1 := httpOverSim(t)
	s2, b2, d2 := httpOverSim(t)
	if s1 != s2 || b1 != b2 || d1 != d2 {
		t.Fatalf("two runs differ: (%d,%q,%v) vs (%d,%q,%v)", s1, b1, d1, s2, b2, d2)
	}
}

// TestManyClientsDeterministic drives several concurrent UDP clients
// against one echo server twice and requires the exact same per-client
// completion times both runs: the driver's serialized wake handoff must
// fully hide OS scheduling.
func TestManyClientsDeterministic(t *testing.T) {
	run := func() string {
		n, cl, sv := pair(t)
		srv, err := n.ListenUDP(sv, 7)
		if err != nil {
			t.Fatal(err)
		}
		n.Go(func() {
			buf := make([]byte, 2048)
			for i := 0; i < 5*4; i++ {
				m, from, err := srv.ReadFromUDPAddrPort(buf)
				if err != nil {
					t.Errorf("server: %v", err)
					return
				}
				srv.WriteToUDPAddrPort(buf[:m], from)
			}
		})
		lines := make([]string, 5)
		for i := 0; i < 5; i++ {
			i := i
			n.Go(func() {
				c, err := n.ListenUDP(cl, 0)
				if err != nil {
					t.Error(err)
					return
				}
				defer c.Close()
				n.Sleep(time.Duration(i) * time.Millisecond)
				buf := make([]byte, 64)
				for j := 0; j < 4; j++ {
					c.WriteToUDPAddrPort([]byte{byte(i), byte(j)}, netip.AddrPortFrom(svAddr, 7))
					if _, _, err := c.ReadFromUDPAddrPort(buf); err != nil {
						t.Errorf("client %d: %v", i, err)
						return
					}
				}
				lines[i] = fmt.Sprintf("client %d done at +%v", i, n.Now().Sub(simStart))
			})
		}
		if err := n.Run(); err != nil {
			t.Fatal(err)
		}
		return strings.Join(lines, "\n") + fmt.Sprintf("\nevents=%d", n.sim.EventsProcessed())
	}
	r1, r2 := run(), run()
	if r1 != r2 {
		t.Fatalf("runs differ:\n--- run 1:\n%s\n--- run 2:\n%s", r1, r2)
	}
}

// TestCountBusyStates: the quiescence test counts a goroutine the
// runtime stopped and will resume unasked as still working — one the
// collector stopped mid-allocation, one behind the world semaphore —
// beside the three states the scheduler names. A semacquire on an fd
// lock waits on another goroutine and is idle.
func TestCountBusyStates(t *testing.T) {
	dump := "goroutine 1 [running]:\nmain.main()\n\n" +
		"goroutine 7 [runnable (scan)]:\nx()\n\n" +
		"goroutine 8 [GC assist marking]:\nx()\n\n" +
		"goroutine 9 [GC assist wait, 1 minutes]:\nx()\n\n" +
		"goroutine 10 [preempted]:\nx()\n\n" +
		"goroutine 11 [syscall, locked to thread]:\nx()\n\n" +
		"goroutine 12 [chan receive]:\nx()\n\n" +
		"goroutine 13 [sync.Cond.Wait, 3 minutes]:\nx()\n\n" +
		"goroutine 14 [GC worker (idle)]:\nx()\n\n" +
		"goroutine 18 [semacquire]:\nruntime.ReadMemStats(0xc000104000)\n\t/usr/local/go/src/runtime/mstats.go:364 +0x1c\nx()\n\n" +
		"goroutine 19 [semacquire]:\ninternal/poll.runtime_Semacquire(0xc00012a0b8)\n\t/usr/local/go/src/runtime/sema.go:76 +0x25\nx()\n"
	if got := countBusy([]byte(dump)); got != 7 {
		t.Errorf("countBusy = %d, want 7 (goroutines 1, 7 to 11 and 18)", got)
	}
}
