// Package tunnel is neutralizerd's transport: serialized IPv4 shim
// packets ride in UDP datagrams, and one loop serves them on anything
// with *net.UDPConn's four methods (Conn): the real socket, the tests'
// in-memory fake, or a simnet.UDPConn in the emulator's virtual time,
// where a seeded flood replays bit-identically (TestServeUnderSimnet).
// Each sentence names its test.
//
// Registration. A peer owns an inner IPv4 address. It registers the UDP
// endpoint that address is reached at with a control frame, exactly the
// five bytes 0x00 ‖ IPv4 (RegisterFrame; TestControlFrameRegisters), or
// by sending a packet the neutralizer serves: the loop learns the inner
// source only after ProcessScratch accepted the packet, so truncated,
// stale or garbage datagrams teach it nothing
// (TestRefusedDatagramTeachesNothing). An unspecified, loopback,
// multicast or broadcast address is refused and counted
// (TestControlFrameRegisters). The table holds at most MaxPeers
// addresses; past that a new address is refused and counted, while a
// registered one may always re-point itself (TestRegistryIsBounded). Not
// closed here: a served packet or a control frame with a forged inner
// source still re-points that address; a TTL and a control frame that
// proves possession of the session key are the next step (ROADMAP item 1).
//
// Delivery. Every packet the neutralizer emits goes to the endpoint
// registered for its inner destination: a key-setup response back to its
// sender (TestKeySetupAnsweredToSender), data to the customer and the
// return packet to the learned outside endpoint (TestDataAndReturnPath).
// No endpoint: dropped and counted, as a border router drops a packet
// with no route (TestUnknownDestinationDropped). A failed write is
// counted, and logged on the 1st, 2nd, 4th, 8th… (TestWriteErrorsCounted).
//
// Workers. The neutralizer keeps no per-flow state, so Options.Workers
// goroutines run the same loop on the one shared Neutralizer, each with
// a Scratch and read buffers of its own; an established flow's datagram
// allocates nothing from read to write (TestServeZeroAlloc). With
// Options.Batch > 1 a worker that has a datagram keeps reading, up to
// Batch of them for at most BatchWait, before it serves them in arrival
// order: same outputs as Batch 1 (TestBatchMatchesPerPacket). The read
// deadline belongs to the socket, not the worker, so batching workers
// take turns reading (TestBatchingWorkersShareSocket).
//
// Shutdown. Serve returns once every worker has: nil after Close, else
// the first read error, having closed the socket so the other workers
// stop (TestCloseStopsEveryWorker, TestReadErrorStopsServe).
package tunnel

import (
	"errors"
	"log"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"netneutral/internal/core"
	"netneutral/internal/obs"
	"netneutral/internal/wire"
)

// Conn is the part of *net.UDPConn the loop uses, in netip.AddrPort
// terms so the real socket needs no adapter and its calls stay
// allocation-free. It is an interface so that the package's tests can
// drive the loop through an in-memory fake and a simnet.UDPConn.
type Conn interface {
	ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error)
	WriteToUDPAddrPort(b []byte, addr netip.AddrPort) (int, error)
	SetReadDeadline(t time.Time) error
	Close() error
}

// Options are the daemon's three transport flags.
type Options struct {
	Workers   int           // goroutines running the loop (>= 1)
	Batch     int           // datagrams a worker reads before serving them (>= 1)
	BatchWait time.Duration // how long a batch may wait to fill after its first datagram
}

// MaxPeers bounds the registry: 1 << 16 entries are a few MB, and more
// inner addresses than that behind one socket is a flood, not a customer
// base.
const MaxPeers = 1 << 16

// RegisterFrame is the control frame that registers inner address a at
// the UDP endpoint it is sent from.
func RegisterFrame(a netip.Addr) []byte {
	a4 := a.As4()
	return append([]byte{0x00}, a4[:]...)
}

// Tunnel is one socket served for one neutralizer.
type Tunnel struct {
	conn   Conn
	neut   *core.Neutralizer
	opts   Options
	caches []*core.SessionCacheMetrics // per worker; nil without a registry

	// AddrPort values are comparable, so the hot path checks for a no-op
	// update under the read lock and skips the write lock.
	mu    sync.RWMutex
	peers map[netip.Addr]netip.AddrPort

	readTurn sync.Mutex // held by the one worker reading, when Batch > 1

	unknownDst, refused, writeErrs atomic.Uint64
}

// New prepares conn to be served for neut. reg, if not nil, gets every
// family the daemon exports — core_*, core_session_cache_* per worker,
// neutralizerd_* — the same set under any Options
// (TestFamiliesDoNotDependOnOptions).
func New(conn Conn, neut *core.Neutralizer, opts Options, reg *obs.Registry) *Tunnel {
	t := &Tunnel{conn: conn, neut: neut, opts: opts, peers: make(map[netip.Addr]netip.AddrPort)}
	t.caches = make([]*core.SessionCacheMetrics, opts.Workers)
	if reg == nil {
		return t
	}
	core.RegisterStats(reg, neut.Stats().Snapshot)
	for i := range t.caches {
		t.caches[i] = core.NewSessionCacheMetrics(reg, i)
	}
	reg.GaugeFunc("neutralizerd_peers", "Inner addresses with a registered tunnel endpoint.",
		func() float64 { return float64(t.Peers()) }, obs.Volatile())
	reg.CounterFunc("neutralizerd_unknown_dst_total", "Output packets dropped: no endpoint registered for the inner destination.",
		t.unknownDst.Load, obs.Volatile())
	reg.CounterFunc("neutralizerd_registry_refused_total", "Registrations refused: a meaningless inner address, or a new one past MaxPeers.",
		t.refused.Load, obs.Volatile())
	reg.CounterFunc("neutralizerd_write_errors_total", "Datagram writes that failed.",
		t.writeErrs.Load, obs.Volatile())
	return t
}

// Peers returns the number of registered inner addresses.
func (t *Tunnel) Peers() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.peers)
}

// Close closes the socket, which makes Serve return.
func (t *Tunnel) Close() error { return t.conn.Close() }

// Serve runs the workers and returns when all of them have.
func (t *Tunnel) Serve() error {
	done := make(chan error, len(t.caches))
	for _, cache := range t.caches {
		go func(cache *core.SessionCacheMetrics) { done <- t.worker(cache) }(cache)
	}
	var first error
	for range t.caches {
		if err := <-done; first == nil && !errors.Is(err, net.ErrClosed) {
			first = err
			t.conn.Close() // the other workers stop on the closed socket
		}
	}
	return first
}

type datagram struct {
	buf  []byte
	n    int
	from netip.AddrPort
}

// worker is the loop: read, then for each datagram register a control
// frame or process, publish the cache counts, learn, deliver. It returns
// the read error that ended it.
func (t *Tunnel) worker(cache *core.SessionCacheMetrics) error {
	in := make([]datagram, t.opts.Batch)
	for i := range in {
		in[i].buf = make([]byte, 64<<10)
	}
	scratch := core.NewScratch()
	for {
		n, err := t.read(in)
		if err != nil {
			return err
		}
		for _, d := range in[:n] {
			pkt := d.buf[:d.n]
			if len(pkt) == 5 && pkt[0] == 0x00 { // exactly a RegisterFrame; anything longer is a packet
				t.register(netip.AddrFrom4([4]byte(pkt[1:5])), d.from)
				continue
			}
			scratch.Reset()
			outs, err := t.neut.ProcessScratch(scratch, pkt)
			if cache != nil {
				cache.Flush(scratch)
			}
			if err != nil {
				continue // refused, and counted in the neutralizer's stats
			}
			src, _, _ := wire.IPv4Addrs(pkt) // a served packet has its header
			t.register(src, d.from)
			for _, o := range outs {
				t.deliver(o.Pkt)
			}
		}
	}
}

// read blocks for one datagram and, when Batch > 1, keeps reading until
// the batch is full or BatchWait has passed. The deadline it arms is the
// socket's: a second worker blocked in its own read would time out on
// it, and clearing it could strand a worker holding a part-filled batch,
// so the read phase of a batching worker is a turn.
func (t *Tunnel) read(in []datagram) (n int, err error) {
	if len(in) > 1 {
		t.readTurn.Lock()
		defer t.readTurn.Unlock()
		if err := t.conn.SetReadDeadline(time.Time{}); err != nil {
			return 0, err
		}
	}
	if in[0].n, in[0].from, err = t.conn.ReadFromUDPAddrPort(in[0].buf); err != nil || len(in) == 1 {
		return 1, err
	}
	if err := t.conn.SetReadDeadline(time.Now().Add(t.opts.BatchWait)); err != nil {
		return 0, err
	}
	for n = 1; n < len(in); n++ {
		d := &in[n]
		if d.n, d.from, err = t.conn.ReadFromUDPAddrPort(d.buf); err != nil {
			break // the deadline; anything else the next blocking read reports
		}
	}
	return n, nil
}

// register points inner address a at peer, unless no packet can be
// addressed to a.
func (t *Tunnel) register(a netip.Addr, peer netip.AddrPort) {
	if a.IsUnspecified() || a.IsLoopback() || a.IsMulticast() || a == netip.AddrFrom4([4]byte{255, 255, 255, 255}) {
		t.refused.Add(1)
		return
	}
	t.mu.RLock()
	cur, ok := t.peers[a]
	t.mu.RUnlock()
	if ok && cur == peer {
		return
	}
	t.mu.Lock()
	if _, ok := t.peers[a]; ok || len(t.peers) < MaxPeers {
		t.peers[a] = peer
	} else {
		t.refused.Add(1)
	}
	t.mu.Unlock()
}

// deliver tunnels one output packet to the endpoint registered for its
// inner destination.
func (t *Tunnel) deliver(pkt []byte) {
	_, dst, _ := wire.IPv4Addrs(pkt) // too short: the zero Addr, which nobody registered
	t.mu.RLock()
	peer, ok := t.peers[dst]
	t.mu.RUnlock()
	if !ok {
		t.unknownDst.Add(1)
		return
	}
	if _, err := t.conn.WriteToUDPAddrPort(pkt, peer); err != nil && !errors.Is(err, net.ErrClosed) {
		if n := t.writeErrs.Add(1); n&(n-1) == 0 {
			log.Printf("write to %v: %v (%d failed writes so far)", peer, err, n)
		}
	}
}
