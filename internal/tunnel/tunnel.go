// Package tunnel is neutralizerd's transport: serialized IPv4 shim
// packets ride in UDP datagrams, and one loop serves them on any Conn:
// the real socket (Socket), the tests' in-memory fake, or a
// simnet.UDPConn in the emulator's virtual time, where a seeded flood
// replays bit-identically at any Options (TestServeUnderSimnet). Each
// sentence names its test.
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
// counted, and logged on the 1st, 2nd, 4th, 8th… (TestWriteErrorsCounted);
// on the socket it costs only its own datagram (TestSocketWriteBatch).
//
// Workers. The neutralizer keeps no per-flow state, so Options.Workers
// goroutines run the same loop on one Neutralizer and socket, each with
// its own Scratch and buffers. With nothing queued, one worker waits in
// the kernel, blocked on the socket and holding an OS thread, and the
// others wait for the socket's read lock. A worker takes what is queued,
// at most Batch, in one read that never waits for more
// (TestSocketReadBatch); each datagram sent to workers waiting on one
// socket is served once (TestWorkersDrainOneSocket). It serves a read in
// order and writes the outputs in one batch, exactly as Batch 1 would
// (TestBatchMatchesPerPacket, TestServeUnderSimnet). A worker starts with
// one 64 KiB slot, and a read that fills all its slots doubles them, up to
// Batch; it keeps them (TestReadSlotsGrowWithQueue). From read to
// write an established flow's datagram allocates nothing
// (TestServeZeroAlloc) and makes no metrics call (TestDataAndReturnPath).
//
// Shutdown. Serve returns once every worker has: nil after Close, else
// the first read error, having closed the socket so the other workers
// stop (TestCloseStopsEveryWorker, TestReadErrorStopsServe). On the
// socket, Close wakes a read waiting in the kernel, which then reports
// net.ErrClosed (TestSocketShutdownWakesReadAndWrite). A write after
// Close, or one Close cuts short, fails with net.ErrClosed and is neither
// counted nor logged (TestWriteAfterCloseNotCounted). A zero-length
// datagram is not a close: it is refused as malformed, and the loop
// serves on (TestSocketEmptyDatagramServedOn).
package tunnel

import (
	"errors"
	"fmt"
	"log"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"

	"netneutral/internal/core"
	"netneutral/internal/obs"
	"netneutral/internal/wire"
)

// Conn is the socket the loop serves. Its standard types let the tests'
// fake and simnet.UDPConn implement it without importing this package.
type Conn interface {
	// ReadBatch waits for a datagram, then reads datagram i of the k
	// queued, at most len(bufs), into bufs[i], n[i] and from[i]. An error
	// (net.ErrClosed after Close) ends the loop.
	ReadBatch(bufs [][]byte, n []int, from []netip.AddrPort) (k int, err error)
	// WriteBatch sends pkts[i] to to[i] in order, past any that fails;
	// errs[i] is its error.
	WriteBatch(pkts [][]byte, to []netip.AddrPort, errs []error)
	Close() error
}

// Options are the daemon's two transport flags.
type Options struct {
	Workers int // goroutines running the loop (>= 1)
	Batch   int // most datagrams one read takes (>= 1)
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
	conn             Conn
	neut             *core.Neutralizer
	opts             Options
	scratches        []*core.Scratch // one per worker
	calls, datagrams []atomic.Uint64 // per worker, written only by it: reads, and the datagrams they returned

	// AddrPort values are comparable, so the hot path checks for a no-op
	// update under the read lock and skips the write lock.
	mu    sync.RWMutex
	peers map[netip.Addr]netip.AddrPort

	unknownDst, refused, writeErrs atomic.Uint64
}

// New prepares conn to be served for neut. reg, if not nil, gets every
// daemon family — core_*, core_session_cache_* and the read counts per
// worker, neutralizerd_* — the same set under any Options
// (TestFamiliesDoNotDependOnOptions).
func New(conn Conn, neut *core.Neutralizer, opts Options, reg *obs.Registry) *Tunnel {
	t := &Tunnel{conn: conn, neut: neut, opts: opts, scratches: make([]*core.Scratch, opts.Workers),
		calls: make([]atomic.Uint64, opts.Workers), datagrams: make([]atomic.Uint64, opts.Workers),
		peers: make(map[netip.Addr]netip.AddrPort)}
	for i := range t.scratches {
		t.scratches[i] = core.NewScratch()
	}
	if reg == nil {
		return t
	}
	core.Register(reg, neut, t.scratches)
	for i := range t.calls {
		reg.CounterFunc(fmt.Sprintf("neutralizerd_read_calls_total{worker=\"%d\"}", i),
			"Socket reads that returned datagrams; datagrams / calls is the mean batch.", t.calls[i].Load, obs.Volatile())
		reg.CounterFunc(fmt.Sprintf("neutralizerd_read_datagrams_total{worker=\"%d\"}", i),
			"Datagrams the worker's socket reads returned.", t.datagrams[i].Load, obs.Volatile())
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
	done := make(chan error, len(t.scratches))
	for i := range t.scratches {
		go func(i int) { done <- t.worker(i) }(i)
	}
	var first error
	for range t.scratches {
		if err := <-done; first == nil && !errors.Is(err, net.ErrClosed) {
			first = err
			t.conn.Close() // the other workers stop on the closed socket
		}
	}
	return first
}

// worker is the loop: read, serve, write; it returns the read error that ends it.
func (t *Tunnel) worker(w int) error {
	scratch := t.scratches[w]
	bufs, n, from := make([][]byte, 1, t.opts.Batch), make([]int, t.opts.Batch), make([]netip.AddrPort, t.opts.Batch)
	bufs[0] = make([]byte, 64<<10) // any UDP datagram fits
	pkts, to, errs := [][]byte(nil), []netip.AddrPort(nil), []error(nil)
	for {
		got, err := t.conn.ReadBatch(bufs, n, from)
		if err != nil {
			return err
		}
		t.calls[w].Add(1)
		t.datagrams[w].Add(uint64(got))
		scratch.Reset() // the outputs stay in its ring until the write
		pkts, to, errs = pkts[:0], to[:0], errs[:0]
		for i, b := range bufs[:got] {
			pkt := b[:n[i]]
			if len(pkt) == 5 && pkt[0] == 0x00 { // exactly a RegisterFrame; anything longer is a packet
				t.register(netip.AddrFrom4([4]byte(pkt[1:5])), from[i])
				continue
			}
			outs, err := t.neut.ProcessScratch(scratch, pkt)
			if err != nil {
				continue // refused, and counted in the neutralizer's stats
			}
			src, _, _ := wire.IPv4Addrs(pkt) // a served packet has its header
			t.register(src, from[i])
			for _, o := range outs {
				if peer, ok := t.route(o.Pkt); ok {
					pkts, to, errs = append(pkts, o.Pkt), append(to, peer), append(errs, nil)
				}
			}
		}
		if len(pkts) > 0 {
			t.conn.WriteBatch(pkts, to, errs)
			for i, err := range errs {
				if err != nil && !errors.Is(err, net.ErrClosed) {
					if c := t.writeErrs.Add(1); c&(c-1) == 0 {
						log.Printf("write to %v: %v (%d failed writes so far)", to[i], err, c)
					}
				}
			}
		}
		if got == len(bufs) { // a full read: double the slots, up to Batch
			for len(bufs) < min(2*got, t.opts.Batch) {
				bufs = append(bufs, make([]byte, 64<<10))
			}
		}
	}
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

// route returns the endpoint registered for pkt's inner destination, or
// counts pkt as undeliverable.
func (t *Tunnel) route(pkt []byte) (netip.AddrPort, bool) {
	_, dst, _ := wire.IPv4Addrs(pkt) // too short: the zero Addr, which nobody registered
	t.mu.RLock()
	peer, ok := t.peers[dst]
	t.mu.RUnlock()
	if !ok {
		t.unknownDst.Add(1)
	}
	return peer, ok
}
