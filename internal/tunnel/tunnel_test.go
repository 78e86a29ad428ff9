package tunnel

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"net"
	"net/netip"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"netneutral/internal/benchenv"
	"netneutral/internal/core"
	"netneutral/internal/crypto/keys"
	"netneutral/internal/obs"
	"netneutral/internal/wire"
)

// dgram is one datagram on the fake socket: scripted in with the
// endpoint it came from, or captured out with the endpoint it went to.
type dgram struct {
	peer netip.AddrPort
	pkt  []byte
}

// fakeConn is the in-memory Conn: reads take scripted datagrams from in
// (blocking, honouring the socket-wide read deadline and Close), writes
// are captured in out.
type fakeConn struct {
	in      chan dgram
	closed  chan struct{}
	blocked chan struct{} // if set: one send per read about to wait
	wrote   chan struct{} // if set: writes are signalled here, not captured

	mu       sync.Mutex
	out      []dgram
	deadline time.Time
	moved    chan struct{} // closed when the deadline changes
	readErr  error         // the next read fails with it, once
	writeErr error         // every write fails with it
	once     sync.Once
}

func newFake(script ...dgram) *fakeConn {
	f := &fakeConn{in: make(chan dgram, len(script)+1), closed: make(chan struct{}), moved: make(chan struct{})}
	for _, d := range script {
		f.in <- d
	}
	return f
}

func (f *fakeConn) ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error) {
	for {
		f.mu.Lock()
		dl, moved, err := f.deadline, f.moved, f.readErr
		f.readErr = nil
		f.mu.Unlock()
		if err != nil {
			return 0, netip.AddrPort{}, err
		}
		var timeout <-chan time.Time
		if !dl.IsZero() {
			timeout = time.After(time.Until(dl))
		}
		if f.blocked != nil {
			f.blocked <- struct{}{}
		}
		select {
		case <-f.closed:
			return 0, netip.AddrPort{}, net.ErrClosed
		case d, ok := <-f.in:
			if !ok {
				return 0, netip.AddrPort{}, net.ErrClosed
			}
			return copy(b, d.pkt), d.peer, nil
		case <-timeout:
			return 0, netip.AddrPort{}, os.ErrDeadlineExceeded
		case <-moved:
		}
	}
}

func (f *fakeConn) WriteToUDPAddrPort(b []byte, to netip.AddrPort) (int, error) {
	if f.wrote != nil {
		f.wrote <- struct{}{}
		return len(b), nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.writeErr != nil {
		return 0, f.writeErr
	}
	f.out = append(f.out, dgram{to, bytes.Clone(b)})
	return len(b), nil
}

func (f *fakeConn) SetReadDeadline(t time.Time) error {
	select {
	case <-f.closed:
		return net.ErrClosed
	default:
	}
	f.mu.Lock()
	f.deadline = t
	close(f.moved)
	f.moved = make(chan struct{})
	f.mu.Unlock()
	return nil
}

func (f *fakeConn) Close() error {
	f.once.Do(func() { close(f.closed) })
	return nil
}

func (f *fakeConn) isClosed() bool {
	select {
	case <-f.closed:
		return true
	default:
		return false
	}
}

// The cast: benchenv's outside host and customer (its packets carry
// these inner addresses), and the UDP endpoints they sit at.
var (
	outside  = netip.MustParseAddr("172.16.1.10")
	customer = netip.MustParseAddr("10.10.0.5")
	anycast  = netip.MustParseAddr("10.200.0.1")
	epOut    = netip.MustParseAddrPort("192.0.2.1:4001")
	epCust   = netip.MustParseAddrPort("192.0.2.2:4002")
	epEve    = netip.MustParseAddrPort("192.0.2.66:6666")
)

var (
	envOnce sync.Once
	envVal  *benchenv.BenchEnv
)

// env is the fixed scenario: a master-key schedule, a clock that stands
// still and one packet of each kind.
func env(t testing.TB) *benchenv.BenchEnv {
	envOnce.Do(func() {
		var err error
		if envVal, err = benchenv.NewBenchEnv(false, false); err != nil {
			t.Fatal(err)
		}
	})
	return envVal
}

// data is a forward packet of flow (outside host number) carrying seq.
func data(t testing.TB, flow, seq int) []byte {
	e := env(t)
	src := netip.AddrFrom4([4]byte{172, 16, 2, byte(flow)})
	pkt, err := benchenv.DataPacket(e.Sched, e.Epoch, src, anycast, customer,
		keys.Nonce{byte(flow), 1}, [8]byte{byte(seq)}, []byte(fmt.Sprintf("flow %d seq %04d", flow, seq)))
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

// serve runs script through Serve to the end of the script and returns
// what the loop wrote, the tunnel and the final metrics.
func serve(t *testing.T, opts Options, script ...dgram) ([]dgram, *Tunnel, *obs.Snapshot) {
	t.Helper()
	f := newFake(script...)
	close(f.in) // after the script, the socket reads as closed
	reg := obs.NewRegistry()
	tun := New(f, neutralizer(t), opts, reg)
	if err := tun.Serve(); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	return f.out, tun, reg.Snapshot()
}

// neutralizer is a fresh replica of env's, so its counters start at zero.
func neutralizer(t testing.TB) *core.Neutralizer {
	n, err := core.New(env(t).NeutralizerConfig())
	if err != nil {
		t.Fatal(err)
	}
	return n
}

var one = Options{Workers: 1, Batch: 1}

func metric(t *testing.T, snap *obs.Snapshot, name string) float64 {
	t.Helper()
	m := snap.Get(name)
	if m == nil {
		t.Fatalf("family %s missing", name)
	}
	return m.Value
}

// reference is what the neutralizer itself emits for pkt.
func reference(t *testing.T, pkt []byte) []byte {
	t.Helper()
	outs, err := env(t).Neut.ProcessScratch(core.NewScratch(), pkt)
	if err != nil || len(outs) != 1 {
		t.Fatalf("reference: %d outputs, %v", len(outs), err)
	}
	return bytes.Clone(outs[0].Pkt)
}

// A control frame registers its address, unless no packet can be
// addressed to it: five zero bytes are a frame for 0.0.0.0, and loopback,
// multicast and the limited broadcast are refused alike.
func TestControlFrameRegisters(t *testing.T) {
	e := env(t)
	script := []dgram{{epCust, RegisterFrame(customer)}, {epOut, e.DataPkt}}
	for _, a := range []string{"0.0.0.0", "127.0.0.1", "127.9.9.9", "224.0.0.1", "239.255.0.7", "255.255.255.255"} {
		script = append(script, dgram{epEve, RegisterFrame(netip.MustParseAddr(a))})
	}
	out, tun, snap := serve(t, one, append(script, dgram{epEve, make([]byte, 5)})...)
	if len(out) != 1 || out[0].peer != epCust || !bytes.Equal(out[0].pkt, reference(t, e.DataPkt)) {
		t.Fatalf("data for a frame-registered customer: %v", out)
	}
	if tun.Peers() != 2 { // the customer by frame, the outside host by its served packet
		t.Fatalf("peers = %d, want 2", tun.Peers())
	}
	if n := metric(t, snap, "neutralizerd_registry_refused_total"); n != 7 {
		t.Fatalf("neutralizerd_registry_refused_total = %v, want 7", n)
	}
}

func TestKeySetupAnsweredToSender(t *testing.T) {
	out, _, snap := serve(t, one, dgram{epOut, env(t).SetupPkt})
	if len(out) != 1 || out[0].peer != epOut {
		t.Fatalf("key-setup response: %v", out)
	}
	if _, dst, _ := wire.IPv4Addrs(out[0].pkt); dst != outside {
		t.Fatalf("response addressed to %v", dst)
	}
	if metric(t, snap, `core_key_setups_total{mode="local"}`) != 1 {
		t.Fatal("core_* families do not follow the traffic")
	}
}

func TestDataAndReturnPath(t *testing.T) {
	e := env(t)
	out, _, snap := serve(t, one,
		dgram{epCust, RegisterFrame(customer)},
		dgram{epOut, e.DataPkt}, dgram{epOut, e.DataPkt}, dgram{epOut, e.DataPkt},
		dgram{epCust, e.ReturnPkt})
	if len(out) != 4 {
		t.Fatalf("%d outputs, want 4", len(out))
	}
	for _, o := range out[:3] {
		if o.peer != epCust {
			t.Fatalf("data went to %v", o.peer)
		}
	}
	ret := out[3]
	if _, dst, _ := wire.IPv4Addrs(ret.pkt); ret.peer != epOut || dst != outside {
		t.Fatalf("return packet for %v went to %v", dst, ret.peer)
	}
	// The worker publishes its scratch's session cache: every lookup is a
	// hit or a miss, the flow's third packet is a hit, and the counts stay
	// out of replay digests.
	hits, misses := snap.Get(`core_session_cache_hits_total{worker="0"}`), snap.Get(`core_session_cache_misses_total{worker="0"}`)
	if hits == nil || misses == nil || hits.Value < 1 || hits.Value+misses.Value != 4 || !hits.Volatile {
		t.Fatalf("session cache families: hits %+v misses %+v", hits, misses)
	}
}

func TestUnknownDestinationDropped(t *testing.T) {
	out, _, snap := serve(t, one, dgram{epOut, env(t).DataPkt})
	if len(out) != 0 {
		t.Fatalf("wrote %v for an unregistered customer", out)
	}
	if n := metric(t, snap, "neutralizerd_unknown_dst_total"); n != 1 {
		t.Fatalf("neutralizerd_unknown_dst_total = %v, want 1", n)
	}
}

// A datagram the neutralizer refuses must not move anybody's endpoint:
// Eve sends a bare header, a truncated packet and a stale-epoch packet,
// all carrying the outside host's inner source, then 1400 zero bytes and
// 1400 bytes that open like a control frame for an address of her own —
// a control frame is five bytes, so both are packets, and malformed.
func TestRefusedDatagramTeachesNothing(t *testing.T) {
	e := env(t)
	stale, err := benchenv.DataPacket(e.Sched, e.Epoch+5, outside, anycast, customer, e.Nonce, [8]byte{1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, tun, snap := serve(t, one,
		dgram{epCust, RegisterFrame(customer)},
		dgram{epOut, e.DataPkt},
		dgram{epEve, e.DataPkt[:wire.IPv4HeaderLen]},
		dgram{epEve, e.DataPkt[:len(e.DataPkt)-70]},
		dgram{epEve, stale},
		dgram{epEve, make([]byte, 1400)},
		dgram{epEve, append(RegisterFrame(netip.MustParseAddr("203.0.113.66")), make([]byte, 1395)...)},
		dgram{epCust, e.ReturnPkt})
	if metric(t, snap, `core_drops_total{reason="malformed"}`) != 4 || metric(t, snap, `core_drops_total{reason="stale_epoch"}`) != 1 {
		t.Fatal("the five hostile datagrams were not refused as four malformed and one stale")
	}
	if len(out) != 2 || out[1].peer != epOut {
		t.Fatalf("return traffic after refused datagrams: %v", out)
	}
	if tun.Peers() != 2 {
		t.Fatalf("peers = %d, want 2", tun.Peers())
	}
}

func TestRegistryIsBounded(t *testing.T) {
	e := env(t)
	script := []dgram{{epCust, RegisterFrame(customer)}, {epOut, e.DataPkt}}
	for i := 0; len(script) < MaxPeers+1; i++ { // MaxPeers+1 distinct addresses in all
		a := netip.AddrFrom4([4]byte{11, byte(i >> 16), byte(i >> 8), byte(i)})
		script = append(script, dgram{netip.AddrPortFrom(a, 9), RegisterFrame(a)})
	}
	epMoved := netip.MustParseAddrPort("192.0.2.3:4003")
	script = append(script,
		dgram{epOut, e.DataPkt},    // a registered peer's traffic is unharmed,
		dgram{epCust, e.ReturnPkt}, // in both directions,
		dgram{epMoved, RegisterFrame(customer)},
		dgram{epOut, e.DataPkt}) // and it may re-point itself
	out, tun, snap := serve(t, one, script...)
	if tun.Peers() != MaxPeers || metric(t, snap, "neutralizerd_peers") != MaxPeers {
		t.Fatalf("peers = %d, want %d", tun.Peers(), MaxPeers)
	}
	if n := metric(t, snap, "neutralizerd_registry_refused_total"); n != 1 {
		t.Fatalf("neutralizerd_registry_refused_total = %v, want 1", n)
	}
	var to []netip.AddrPort
	for _, o := range out {
		to = append(to, o.peer)
	}
	if want := []netip.AddrPort{epCust, epCust, epOut, epMoved}; !reflect.DeepEqual(to, want) {
		t.Fatalf("deliveries %v, want %v", to, want)
	}
}

func TestWriteErrorsCounted(t *testing.T) {
	e := env(t)
	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)
	d := dgram{epOut, e.DataPkt}
	f := newFake(dgram{epCust, RegisterFrame(customer)}, d, d, d, d, d)
	close(f.in)
	f.writeErr = errors.New("no buffer space")
	reg := obs.NewRegistry()
	if err := New(f, neutralizer(t), one, reg).Serve(); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if n := metric(t, reg.Snapshot(), "neutralizerd_write_errors_total"); n != 5 {
		t.Fatalf("neutralizerd_write_errors_total = %v, want 5", n)
	}
	if n := strings.Count(logged.String(), "no buffer space"); n != 3 {
		t.Fatalf("5 failed writes logged %d times, want 3 (1st, 2nd, 4th):\n%s", n, logged.String())
	}
}

// mixedScript is four interleaved flows with refused datagrams, a
// re-registration and a return packet among them.
func mixedScript(t *testing.T) (script []dgram, served int) {
	e := env(t)
	script = append(script, dgram{epCust, RegisterFrame(customer)})
	for seq := 0; seq < 25; seq++ {
		for flow := 0; flow < 4; flow++ {
			ep := netip.AddrPortFrom(netip.AddrFrom4([4]byte{192, 0, 2, byte(10 + flow)}), 5000)
			script = append(script, dgram{ep, data(t, flow, seq)})
			served++
		}
		switch seq % 5 {
		case 1:
			script = append(script, dgram{epEve, []byte("not a packet")})
		case 2:
			script = append(script, dgram{epCust, RegisterFrame(customer)})
		case 3:
			script = append(script, dgram{epOut, e.DataPkt}, dgram{epCust, e.ReturnPkt})
			served += 2
		}
	}
	return script, served
}

func TestBatchMatchesPerPacket(t *testing.T) {
	script, served := mixedScript(t)
	perPacket, _, _ := serve(t, one, script...)
	batched, tun, snap := serve(t, Options{Workers: 1, Batch: 8, BatchWait: time.Millisecond}, script...)
	if len(perPacket) != served || len(batched) != served {
		t.Fatalf("outputs: %d per packet, %d batched, want %d", len(perPacket), len(batched), served)
	}
	for i := range perPacket {
		a, b := perPacket[i], batched[i]
		// A return packet carries a freshly drawn grant: compare where it
		// went and its size. Everything else is byte for byte.
		if _, dst, _ := wire.IPv4Addrs(a.pkt); dst == outside {
			if a.peer != b.peer || len(a.pkt) != len(b.pkt) {
				t.Fatalf("output %d (return): %v/%d vs %v/%d", i, a.peer, len(a.pkt), b.peer, len(b.pkt))
			}
		} else if a.peer != b.peer || !bytes.Equal(a.pkt, b.pkt) {
			t.Fatalf("output %d differs between Batch 1 and Batch 8", i)
		}
	}
	if tun.Peers() != 6 || metric(t, snap, `core_drops_total{reason="malformed"}`) == 0 {
		t.Fatalf("peers %d, malformed %v", tun.Peers(), metric(t, snap, `core_drops_total{reason="malformed"}`))
	}
}

// The families are the same set whatever the options; only the worker
// label of the per-worker ones multiplies.
func TestFamiliesDoNotDependOnOptions(t *testing.T) {
	bases := func(opts Options) []string {
		reg := obs.NewRegistry()
		New(newFake(), neutralizer(t), opts, reg)
		set := map[string]bool{}
		for _, m := range reg.Snapshot().Metrics {
			set[m.Base] = true
		}
		var names []string
		for b := range set {
			names = append(names, b)
		}
		sort.Strings(names)
		return names
	}
	a, b := bases(one), bases(Options{Workers: 3, Batch: 64})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("families differ by options:\n%v\n%v", a, b)
	}
	for _, want := range []string{"core_drops_total", "core_session_cache_hits_total", "neutralizerd_peers",
		"neutralizerd_unknown_dst_total", "neutralizerd_registry_refused_total", "neutralizerd_write_errors_total"} {
		if i := sort.SearchStrings(a, want); i == len(a) || a[i] != want {
			t.Errorf("family %s missing from %v", want, a)
		}
	}
}

// Two batching workers on one socket: the fill deadline one of them arms
// is the socket's, yet neither may end on a deadline error or strand a
// datagram. The script trickles in so that fills time out.
func TestBatchingWorkersShareSocket(t *testing.T) {
	script, served := mixedScript(t)
	f := newFake()
	tun := New(f, neutralizer(t), Options{Workers: 2, Batch: 8, BatchWait: 200 * time.Microsecond}, nil)
	tun.register(customer, epCust) // so that no worker can serve a flow before the script's first frame
	done := make(chan error, 1)
	go func() { done <- tun.Serve() }()
	for i, d := range script {
		f.in <- d
		if i%5 == 4 {
			time.Sleep(500 * time.Microsecond)
		}
	}
	close(f.in)
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	// The outside host's first packet may be served by the other worker
	// after the return packet behind it in the script, which is then
	// dropped as unknown; the four flows never are.
	flows := 0
	for _, o := range f.out {
		if bytes.Contains(o.pkt, []byte("flow ")) {
			flows++
		}
	}
	if flows != 100 || len(f.out) > served {
		t.Fatalf("%d flow packets of 100 delivered, %d outputs of at most %d", flows, len(f.out), served)
	}
}

func workerGoroutines() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "tunnel.(*Tunnel).worker")
}

func TestCloseStopsEveryWorker(t *testing.T) {
	for _, opts := range []Options{{Workers: 4, Batch: 1}, {Workers: 4, Batch: 8, BatchWait: time.Millisecond}} {
		f := newFake()
		f.blocked = make(chan struct{}, 4)
		tun := New(f, neutralizer(t), opts, nil)
		done := make(chan error, 1)
		go func() { done <- tun.Serve() }()
		want := opts.Workers
		if opts.Batch > 1 {
			want = 1 // batching workers take turns at the socket
		}
		for i := 0; i < want; i++ {
			<-f.blocked
		}
		tun.Close()
		if err := <-done; err != nil {
			t.Fatalf("%+v: Serve after Close: %v", opts, err)
		}
		if n := workerGoroutines(); n != 0 {
			t.Fatalf("%+v: %d workers still running after Serve returned", opts, n)
		}
	}
}

func TestReadErrorStopsServe(t *testing.T) {
	boom := errors.New("boom")
	f := newFake()
	f.readErr = boom // one worker's read fails; the other three block
	err := New(f, neutralizer(t), Options{Workers: 4, Batch: 1}, nil).Serve()
	if !errors.Is(err, boom) {
		t.Fatalf("Serve = %v, want the read error", err)
	}
	if !f.isClosed() || workerGoroutines() != 0 {
		t.Fatalf("socket closed: %v, workers left: %d", f.isClosed(), workerGoroutines())
	}
}

// TestServeZeroAlloc: an established flow's datagram allocates nothing
// between the socket read and the socket write, metrics flush included.
func TestServeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	e := env(t)
	f := newFake(dgram{epCust, RegisterFrame(customer)})
	f.wrote = make(chan struct{})
	tun := New(f, neutralizer(t), one, obs.NewRegistry())
	done := make(chan error, 1)
	go func() { done <- tun.Serve() }()
	d := dgram{epOut, e.DataPkt}
	roundTrip := func() {
		f.in <- d
		<-f.wrote
	}
	for i := 0; i < 4; i++ { // the flow's second served packet admits it to the cache
		roundTrip()
	}
	if n := testing.AllocsPerRun(200, roundTrip); n != 0 {
		t.Errorf("read → serve → write allocates %v per datagram", n)
	}
	tun.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
