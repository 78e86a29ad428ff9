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

// fakeConn is the in-memory Conn: a read waits for a scripted datagram
// on in (or Close) if none is queued, then drains what else is queued
// there, up to the slots it was handed; writes are captured in out.
type fakeConn struct {
	in      chan dgram
	closed  chan struct{}
	blocked chan struct{} // if set: one send per read about to wait
	wrote   chan struct{} // if set: writes are signalled here, not captured

	mu               sync.Mutex
	out              []dgram
	calls, datagrams int   // reads served, and the datagrams they returned
	readErr          error // the next read fails with it, once
	writeErr         error // every write fails with it
	once             sync.Once
}

func newFake(script ...dgram) *fakeConn {
	f := &fakeConn{in: make(chan dgram, len(script)+1), closed: make(chan struct{})}
	for _, d := range script {
		f.in <- d
	}
	return f
}

func (f *fakeConn) ReadBatch(bufs [][]byte, n []int, from []netip.AddrPort) (int, error) {
	f.mu.Lock()
	err := f.readErr
	f.readErr = nil
	f.mu.Unlock()
	if err != nil {
		return 0, err
	}
	var d dgram
	ok := false
	select {
	case d, ok = <-f.in:
	default:
		if f.blocked != nil {
			f.blocked <- struct{}{}
		}
		select {
		case <-f.closed:
		case d, ok = <-f.in:
		}
	}
	if !ok {
		return 0, net.ErrClosed
	}
	k := 0
	for ok {
		n[k], from[k] = copy(bufs[k], d.pkt), d.peer
		if k++; k == len(bufs) {
			break
		}
		select {
		case d, ok = <-f.in:
		default:
			ok = false
		}
	}
	f.mu.Lock()
	f.calls, f.datagrams = f.calls+1, f.datagrams+k
	f.mu.Unlock()
	return k, nil
}

func (f *fakeConn) WriteBatch(pkts [][]byte, to []netip.AddrPort, errs []error) {
	if f.wrote != nil {
		clear(errs[:len(pkts)])
		f.wrote <- struct{}{}
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, p := range pkts {
		if errs[i] = f.writeErr; errs[i] == nil {
			f.out = append(f.out, dgram{to[i], bytes.Clone(p)})
		}
	}
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
	// The registry reads the worker's scratch's session cache: every
	// lookup is a hit or a miss, the flow's third packet is a hit, and the
	// counts stay out of replay digests.
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

// Each failed datagram counts once, whether it failed alone or in a
// batch of five.
func TestWriteErrorsCounted(t *testing.T) {
	e := env(t)
	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)
	d := dgram{epOut, e.DataPkt}
	for _, opts := range []Options{one, {Workers: 1, Batch: 8}} {
		logged.Reset()
		f := newFake(dgram{epCust, RegisterFrame(customer)}, d, d, d, d, d)
		close(f.in)
		f.writeErr = errors.New("no buffer space")
		reg := obs.NewRegistry()
		if err := New(f, neutralizer(t), opts, reg).Serve(); err != nil {
			t.Fatalf("Serve: %v", err)
		}
		if n := metric(t, reg.Snapshot(), "neutralizerd_write_errors_total"); n != 5 {
			t.Fatalf("%+v: neutralizerd_write_errors_total = %v, want 5", opts, n)
		}
		if n := strings.Count(logged.String(), "no buffer space"); n != 3 {
			t.Fatalf("%+v: 5 failed writes logged %d times, want 3 (1st, 2nd, 4th):\n%s", opts, n, logged.String())
		}
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

// A fully queued script served at Batch 8 gives the outputs, endpoints,
// order and counters it gives at Batch 1, though its reads took more than
// one datagram each.
func TestBatchMatchesPerPacket(t *testing.T) {
	script, served := mixedScript(t)
	perPacket, _, snap1 := serve(t, one, script...)
	batched, tun, snap8 := serve(t, Options{Workers: 1, Batch: 8}, script...)
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
	if tun.Peers() != 6 || metric(t, snap8, `core_drops_total{reason="malformed"}`) == 0 {
		t.Fatalf("peers %d, malformed %v", tun.Peers(), metric(t, snap8, `core_drops_total{reason="malformed"}`))
	}
	const calls = `neutralizerd_read_calls_total{worker="0"}`
	if metric(t, snap1, calls) != float64(len(script)) || metric(t, snap8, calls) >= float64(len(script))/4 {
		t.Fatalf("reads for %d datagrams: %v at Batch 1, %v at Batch 8", len(script), metric(t, snap1, calls), metric(t, snap8, calls))
	}
	for _, m := range snap1.Metrics {
		if m.Name != calls && snap8.Get(m.Name).Value != m.Value {
			t.Errorf("%s: %v at Batch 1, %v at Batch 8", m.Name, m.Value, snap8.Get(m.Name).Value)
		}
	}
}

// askingConn records what each read asked of a fakeConn: how many
// datagrams, and which slots.
type askingConn struct {
	*fakeConn
	asked []int
	slots map[*byte]bool
}

func (a *askingConn) ReadBatch(bufs [][]byte, n []int, from []netip.AddrPort) (int, error) {
	a.asked = append(a.asked, len(bufs))
	for _, b := range bufs {
		a.slots[&b[0]] = true
	}
	return a.fakeConn.ReadBatch(bufs, n, from)
}

// A worker starts with one slot, and a read that fills all its slots
// doubles them, never past Batch; a read that leaves slots empty keeps
// them, so datagrams that come one at a time keep two.
func TestReadSlotsGrowWithQueue(t *testing.T) {
	e := env(t)
	d := dgram{epOut, e.DataPkt}
	for _, c := range []struct {
		queue, batch int
		asked        []int
	}{
		{20, 8, []int{1, 2, 4, 8, 8, 8}}, // 1+2+4+8 filled, 5 of 8 did not, and the read that met the close asked 8
		{14, 64, []int{1, 2, 4, 8, 8}},   // 7 of 8 is not full
	} {
		script := []dgram{{epCust, RegisterFrame(customer)}}
		for len(script) < c.queue {
			script = append(script, d)
		}
		queued := &askingConn{fakeConn: newFake(script...), slots: map[*byte]bool{}}
		close(queued.in)
		if err := New(queued, neutralizer(t), Options{Workers: 1, Batch: c.batch}, nil).Serve(); err != nil {
			t.Fatal(err)
		}
		if slots := c.asked[len(c.asked)-1]; !reflect.DeepEqual(queued.asked, c.asked) || len(queued.slots) != slots {
			t.Fatalf("a queue of %d at Batch %d: asked %v with %d slots, want %v with %d", c.queue, c.batch, queued.asked, len(queued.slots), c.asked, slots)
		}
	}

	// At Batch 64, six datagrams one at a time, each sent once the worker
	// waits for it: the first fills the one slot, the rest one of two.
	trickled := &askingConn{fakeConn: newFake(), slots: map[*byte]bool{}}
	trickled.in, trickled.blocked, trickled.wrote = make(chan dgram, 1), make(chan struct{}), make(chan struct{})
	tun := New(trickled, neutralizer(t), Options{Workers: 1, Batch: 64}, nil)
	tun.register(customer, epCust)
	done := make(chan error, 1)
	go func() { done <- tun.Serve() }()
	for i := 0; i < 6; i++ {
		<-trickled.blocked
		trickled.in <- d
		<-trickled.wrote
	}
	<-trickled.blocked
	close(trickled.in)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 2, 2, 2, 2, 2, 2}; !reflect.DeepEqual(trickled.asked, want) || len(trickled.slots) != 2 {
		t.Fatalf("asked %v with %d slots, want %v with 2", trickled.asked, len(trickled.slots), want)
	}
}

// readFamilies sums each worker's neutralizerd_read_{calls,datagrams}_total.
func readFamilies(t *testing.T, snap *obs.Snapshot, workers int) (calls, datagrams float64) {
	for w := 0; w < workers; w++ {
		calls += metric(t, snap, fmt.Sprintf(`neutralizerd_read_calls_total{worker="%d"}`, w))
		datagrams += metric(t, snap, fmt.Sprintf(`neutralizerd_read_datagrams_total{worker="%d"}`, w))
	}
	return calls, datagrams
}

// Each worker counts its reads and the datagrams they returned: summed,
// the reads the socket served.
func TestReadCountersMatchReads(t *testing.T) {
	script, _ := mixedScript(t)
	f := newFake(script...)
	close(f.in)
	reg := obs.NewRegistry()
	opts := Options{Workers: 2, Batch: 4}
	if err := New(f, neutralizer(t), opts, reg).Serve(); err != nil {
		t.Fatal(err)
	}
	calls, datagrams := readFamilies(t, reg.Snapshot(), opts.Workers)
	if calls != float64(f.calls) || datagrams != float64(f.datagrams) || f.datagrams != len(script) || f.calls >= len(script) {
		t.Fatalf("families %v reads of %v datagrams; the fake served %d of %d (script %d)", calls, datagrams, f.calls, f.datagrams, len(script))
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
		"neutralizerd_unknown_dst_total", "neutralizerd_registry_refused_total", "neutralizerd_write_errors_total",
		"neutralizerd_read_calls_total", "neutralizerd_read_datagrams_total"} {
		if i := sort.SearchStrings(a, want); i == len(a) || a[i] != want {
			t.Errorf("family %s missing from %v", want, a)
		}
	}
}

// Two workers drain one socket while the script trickles in: every
// datagram is read by one of them, and no flow packet is lost. On a real
// socket both wait on one fd, one of them in the kernel: each datagram is
// served exactly once, and the read counters sum to what was sent.
func TestWorkersDrainOneSocket(t *testing.T) {
	opts := Options{Workers: 2, Batch: 8}
	t.Run("fake", func(t *testing.T) {
		script, served := mixedScript(t)
		f := newFake()
		reg := obs.NewRegistry()
		tun := New(f, neutralizer(t), opts, reg)
		tun.register(customer, epCust) // so that no worker can serve a flow before the script's first frame
		done := make(chan error, 1)
		go func() { done <- tun.Serve() }()
		for i, d := range script {
			f.in <- d
			if i%5 == 4 {
				time.Sleep(time.Millisecond)
			}
		}
		close(f.in)
		if err := <-done; err != nil {
			t.Fatalf("Serve: %v", err)
		}
		if _, datagrams := readFamilies(t, reg.Snapshot(), opts.Workers); datagrams != float64(len(script)) {
			t.Fatalf("%v of %d datagrams read", datagrams, len(script))
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
	})
	t.Run("socket", func(t *testing.T) {
		sock, daemon := loopback(t)
		out, cust := listenLoopback(t), listenLoopback(t)
		cust.SetReadDeadline(time.Now().Add(time.Minute))
		reg := obs.NewRegistry()
		tun := New(sock, neutralizer(t), opts, reg)
		tun.register(customer, cust.LocalAddr().(*net.UDPAddr).AddrPort())
		done := make(chan error, 1)
		go func() { done <- tun.Serve() }()
		waitParked(t, opts.Workers)
		const sent = 100
		for seq := 0; seq < sent/4; seq++ {
			for flow := 0; flow < 4; flow++ {
				if _, err := out.WriteToUDPAddrPort(data(t, flow, seq), daemon); err != nil {
					t.Fatal(err)
				}
			}
			time.Sleep(time.Millisecond) // so that the workers wait again
		}
		seen, buf := map[string]int{}, make([]byte, 2048)
		for len(seen) < sent {
			n, _, err := cust.ReadFromUDPAddrPort(buf)
			if err != nil {
				t.Fatalf("%d of %d flow packets delivered: %v", len(seen), sent, err)
			}
			i := bytes.Index(buf[:n], []byte("flow "))
			if i < 0 {
				t.Fatalf("delivered %d bytes with no flow payload", n)
			}
			if seen[string(buf[i:n])]++; seen[string(buf[i:n])] > 1 {
				t.Fatalf("%q served twice", buf[i:n])
			}
		}
		stop(t, tun, done)
		if _, datagrams := readFamilies(t, reg.Snapshot(), opts.Workers); datagrams != sent {
			t.Fatalf("%v datagrams read, %d sent", datagrams, sent)
		}
	})
}

func workerGoroutines() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "tunnel.(*Tunnel).worker")
}

// listenLoopback is a UDP socket on 127.0.0.1, closed when the test ends.
func listenLoopback(t *testing.T) *net.UDPConn {
	t.Helper()
	c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// loopback is a loopback socket's driver and the address it listens on.
func loopback(t *testing.T) (Conn, netip.AddrPort) {
	t.Helper()
	c := listenLoopback(t)
	sock, err := Socket(c)
	if err != nil {
		t.Fatal(err)
	}
	return sock, c.LocalAddr().(*net.UDPAddr).AddrPort()
}

// parkedWorkers counts the loop's goroutines that wait (in the kernel,
// the netpoller, or for the socket's read lock) rather than run.
func parkedWorkers() int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "tunnel.(*Tunnel).worker") && !strings.Contains(g, "[running]") && !strings.Contains(g, "[runnable]") {
			n++
		}
	}
	return n
}

// waitFor polls cond every millisecond, failing as what after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("after 10s: %s", what)
		}
	}
}

// waitParked waits for n workers to wait.
func waitParked(t *testing.T, n int) {
	t.Helper()
	waitFor(t, fmt.Sprintf("fewer than %d workers waiting", n), func() bool { return parkedWorkers() >= n })
}

// stop closes tun and waits up to 10 s for Serve, which reports on
// done, to return nil.
func stop(t *testing.T, tun *Tunnel, done <-chan error) {
	t.Helper()
	go tun.Close() // a Close that hangs shows as Serve not returning
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve after Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve still running 10s after Close")
	}
}

// Close stops every worker, one waiting for a datagram and any waiting
// for the read: on the fake, and on a real socket, where a worker waits
// in the kernel and Close must wake it.
func TestCloseStopsEveryWorker(t *testing.T) {
	for _, opts := range []Options{{Workers: 4, Batch: 1}, {Workers: 4, Batch: 8}} {
		f := newFake()
		f.blocked = make(chan struct{}, 4)
		tun := New(f, neutralizer(t), opts, nil)
		done := make(chan error, 1)
		go func() { done <- tun.Serve() }()
		for i := 0; i < opts.Workers; i++ {
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

	for _, opts := range []Options{{Workers: 1, Batch: 64}, {Workers: 4, Batch: 64}} {
		sock, _ := loopback(t)
		tun := New(sock, neutralizer(t), opts, nil)
		done := make(chan error, 1)
		go func() { done <- tun.Serve() }()
		waitParked(t, opts.Workers)
		stop(t, tun, done)
		if n := workerGoroutines(); n != 0 {
			t.Fatalf("socket %+v: %d workers still running after Serve returned", opts, n)
		}
	}
}

// cutConn runs cut on the socket before each write, and keeps the
// write's errors.
type cutConn struct {
	Conn
	cut  func(Conn)
	errs *[]error
}

func (c cutConn) WriteBatch(pkts [][]byte, to []netip.AddrPort, errs []error) {
	c.cut(c.Conn)
	c.Conn.WriteBatch(pkts, to, errs)
	*c.errs = append(*c.errs, errs[:len(pkts)]...)
}

// cutWrite serves one data packet on a real socket that cut closes as the
// loop writes the answer, and returns the write's errors, the failed
// writes the loop counted and what it logged.
func cutWrite(t *testing.T, cut func(Conn)) (errs []error, counted float64, logged string) {
	t.Helper()
	sock, daemon := loopback(t)
	out, cust := listenLoopback(t), listenLoopback(t)
	var buf bytes.Buffer
	log.SetOutput(&buf)
	defer log.SetOutput(os.Stderr)
	reg := obs.NewRegistry()
	tun := New(cutConn{sock, cut, &errs}, neutralizer(t), Options{Workers: 1, Batch: 64}, reg)
	tun.register(customer, cust.LocalAddr().(*net.UDPAddr).AddrPort())
	done := make(chan error, 1)
	go func() { done <- tun.Serve() }()
	if _, err := out.WriteToUDPAddrPort(env(t).DataPkt, daemon); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done: // the read after the write finds the socket closed
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		tun.Close()
		t.Fatal("Serve still running 10s after the socket closed under its write")
	}
	return errs, metric(t, reg.Snapshot(), "neutralizerd_write_errors_total"), buf.String()
}

// A write after Close fails with net.ErrClosed, and the loop neither
// counts nor logs it.
func TestWriteAfterCloseNotCounted(t *testing.T) {
	errs, counted, logged := cutWrite(t, func(c Conn) { c.Close() })
	if len(errs) != 1 || !errors.Is(errs[0], net.ErrClosed) || counted != 0 || logged != "" {
		t.Fatalf("write errors %v, counted %v, logged %q; want one net.ErrClosed, uncounted and unlogged", errs, counted, logged)
	}
}

// A zero-length datagram is a packet, refused as malformed and counted,
// not the end of the socket: the loop serves on, and the frame behind it
// registers, whether it was queued or the worker waited for it.
func TestSocketEmptyDatagramServedOn(t *testing.T) {
	sock, daemon := loopback(t)
	cust := listenLoopback(t)
	send := func(p []byte) {
		if _, err := cust.WriteToUDPAddrPort(p, daemon); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	tun := New(sock, neutralizer(t), Options{Workers: 1, Batch: 64}, reg)
	send(nil) // queued before the first read
	done := make(chan error, 1)
	go func() { done <- tun.Serve() }()
	waitFor(t, "the queued empty datagram not read", func() bool {
		return metric(t, reg.Snapshot(), `neutralizerd_read_datagrams_total{worker="0"}`) > 0
	})
	waitParked(t, 1)
	time.Sleep(10 * time.Millisecond) // so that the worker waits for the next one
	send(nil)
	send(RegisterFrame(customer))
	waitFor(t, "the frame behind two empty datagrams not registered", func() bool { return tun.Peers() > 0 })
	stop(t, tun, done)
	if n := metric(t, reg.Snapshot(), `core_drops_total{reason="malformed"}`); n != 2 {
		t.Fatalf("%v malformed drops for 2 empty datagrams", n)
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
// between the socket read and the socket write, metrics flush included,
// on the fake and on a real socket.
func TestServeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	e := env(t)
	check := func(t *testing.T, conn Conn, cust netip.AddrPort, roundTrip func()) {
		tun := New(conn, neutralizer(t), Options{Workers: 1, Batch: 64}, obs.NewRegistry())
		tun.register(customer, cust)
		done := make(chan error, 1)
		go func() { done <- tun.Serve() }()
		for i := 0; i < 4; i++ { // the flow's second served packet admits it to the cache
			roundTrip()
		}
		if n := testing.AllocsPerRun(200, roundTrip); n != 0 {
			t.Errorf("read → serve → write allocates %v per datagram", n)
		}
		stop(t, tun, done)
	}
	t.Run("fake", func(t *testing.T) {
		f := newFake()
		f.wrote = make(chan struct{})
		check(t, f, epCust, func() {
			f.in <- dgram{epOut, e.DataPkt}
			<-f.wrote
		})
	})
	t.Run("socket", func(t *testing.T) {
		sock, daemon := loopback(t)
		out, cust := listenLoopback(t), listenLoopback(t)
		cust.SetReadDeadline(time.Now().Add(time.Minute))
		buf := make([]byte, 2048)
		check(t, sock, cust.LocalAddr().(*net.UDPAddr).AddrPort(), func() {
			if _, err := out.WriteToUDPAddrPort(e.DataPkt, daemon); err != nil {
				t.Fatal(err)
			}
			if _, _, err := cust.ReadFromUDPAddrPort(buf); err != nil {
				t.Fatal(err)
			}
		})
	})
}
