//go:build linux

package main

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
	"net/netip"
	"runtime"
	"syscall"
	"time"

	"netneutral/internal/crypto/aesutil"
	"netneutral/internal/shim"
	"netneutral/internal/wire"
)

// Closed-loop UDP load generator: one OS thread, two connected sockets
// ("outside" and "customer"), one epoll set. W slots each keep exactly
// one datagram in flight — send → target → customer socket → return
// packet → target → outside socket → next send — because each caller
// waits for its reply. A slot with no reply after slotTimeout is counted
// failed and re-issued (a second, not the 100 ms first tried: on a shared
// host the hypervisor alone can hold a vCPU that long). Traffic crosses the host loopback interface,
// never a real link.

const (
	slotTimeout = time.Second
	// The first 12 payload bytes identify the round trip; the rest is the
	// combo's seeded filler.
	payloadSeqLen = 12
)

// combo is one (outside flow, customer) pair with its prebuilt packets.
type combo struct {
	flow flow
	cust netip.Addr
	fwd  []byte       // TypeData, outside → anycast, dst sealed under Ks
	ret  []byte       // TypeReturn, customer → anycast, initiator in clear
	blk  cipher.Block // AES under Ks: opens the return leg's hidden source
}

// buildCombos crosses flows with customers, payloadLen bytes of seeded
// filler each.
func buildCombos(w *world, flows int, payloadLen int) ([]combo, error) {
	var out []combo
	for i := 0; i < flows; i++ {
		f, err := w.newFlow()
		if err != nil {
			return nil, err
		}
		blk, err := aes.NewCipher(f.ks[:])
		if err != nil {
			return nil, err
		}
		for _, cust := range w.customers {
			payload := w.randPayload(payloadLen)
			fwd, err := w.forwardPacket(f, cust, 0, payload)
			if err != nil {
				return nil, err
			}
			ret, err := w.returnPacket(f, cust, payload)
			if err != nil {
				return nil, err
			}
			out = append(out, combo{flow: f, cust: cust, fwd: fwd, ret: ret, blk: blk})
		}
	}
	return out, nil
}

// addrBlockMagic recovers the address block's check value by sealing a
// known address and opening it with the standard library cipher, so the
// generator verifies hidden blocks without the decoder under test.
func addrBlockMagic() ([4]byte, error) {
	var key aesutil.Key
	ct, err := aesutil.EncryptAddr(key, anycastAddr, [8]byte{})
	if err != nil {
		return [4]byte{}, err
	}
	blk, err := aes.NewCipher(key[:])
	if err != nil {
		return [4]byte{}, err
	}
	var pt [16]byte
	blk.Decrypt(pt[:], ct[:])
	return [4]byte(pt[12:16]), nil
}

type slot struct {
	seq    uint64
	combo  int
	sentAt int64 // ns since loadgen.t0
	custAt int64
	active bool
}

// echoMode says what the target does to packets, hence where payloads sit
// in what comes back and how much can be verified.
type echoMode struct {
	// rewrites is true for neutralizerd (Data→Delivered,
	// Return→ReturnDelivered) and false for the bare reflector, which
	// forwards bytes unchanged.
	rewrites bool
}

func (m echoMode) fwdPayloadOff() int {
	if m.rewrites {
		return offPayloadClear // TypeDelivered
	}
	return offPayloadBlock // TypeData, untouched
}

func (m echoMode) retPayloadOff() int {
	if m.rewrites {
		return offPayloadBlock // TypeReturnDelivered
	}
	return offPayloadClear // TypeReturn, untouched
}

type loadgen struct {
	epfd, outFD, custFD int
	mode                echoMode
	combos              []combo
	magic               [4]byte
	t0                  time.Time

	slots   []slot
	nextSeq uint64
	sbuf    []byte
	rbuf    []byte
	events  []syscall.EpollEvent

	attempted, timeouts, wrong, stale int64
	errs                              []string
}

// newLoadgen opens the two sockets, connects both to target and arms the
// epoll set.
func newLoadgen(target netip.AddrPort, mode echoMode, combos []combo) (*loadgen, error) {
	magic, err := addrBlockMagic()
	if err != nil {
		return nil, err
	}
	g := &loadgen{
		epfd: -1, outFD: -1, custFD: -1, mode: mode, combos: combos, magic: magic, t0: time.Now(),
		sbuf: make([]byte, 2048), rbuf: make([]byte, 2048), events: make([]syscall.EpollEvent, 2),
	}
	if g.epfd, err = syscall.EpollCreate1(syscall.EPOLL_CLOEXEC); err != nil {
		return nil, fmt.Errorf("loadgen: epoll_create1: %w", err)
	}
	sa := &syscall.SockaddrInet4{Port: int(target.Port()), Addr: target.Addr().As4()}
	for _, fdp := range []*int{&g.outFD, &g.custFD} {
		fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_DGRAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0)
		if err != nil {
			g.close()
			return nil, fmt.Errorf("loadgen: socket: %w", err)
		}
		*fdp = fd
		if err := syscall.Connect(fd, sa); err != nil {
			g.close()
			return nil, fmt.Errorf("loadgen: connect %v: %w", target, err)
		}
		ev := syscall.EpollEvent{Events: syscall.EPOLLIN, Fd: int32(fd)}
		if err := syscall.EpollCtl(g.epfd, syscall.EPOLL_CTL_ADD, fd, &ev); err != nil {
			g.close()
			return nil, fmt.Errorf("loadgen: epoll_ctl: %w", err)
		}
	}
	return g, nil
}

func (g *loadgen) close() {
	for _, fd := range []int{g.outFD, g.custFD, g.epfd} {
		if fd >= 0 {
			_ = syscall.Close(fd) // nothing buffered to lose on a datagram socket
		}
	}
	g.outFD, g.custFD, g.epfd = -1, -1, -1
}

// register tells the daemon which tunnel endpoint owns each customer's
// inner address (control frame 0x00 ‖ IPv4), from the customer socket.
func (g *loadgen) register(customers []netip.Addr) {
	for _, c := range customers {
		a := c.As4()
		g.send(g.custFD, append([]byte{0x00}, a[:]...))
	}
}

func (g *loadgen) now() int64 { return int64(time.Since(g.t0)) }

func (g *loadgen) fail(format string, args ...any) {
	g.wrong++
	if len(g.errs) < 8 {
		g.errs = append(g.errs, fmt.Sprintf(format, args...))
	}
}

func (g *loadgen) send(fd int, pkt []byte) {
	for {
		_, err := syscall.Write(fd, pkt)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			g.fail("send: %v", err)
		}
		return
	}
}

// recv reads one datagram, or reports false when none is queued.
func (g *loadgen) recv(fd int) ([]byte, bool) {
	for {
		n, err := syscall.Read(fd, g.rbuf)
		switch {
		case err == syscall.EINTR:
			continue
		case err == syscall.EAGAIN:
			return nil, false
		case err != nil:
			g.fail("recv: %v", err)
			return nil, false
		}
		return g.rbuf[:n], true
	}
}

// issue sends slot i's next forward packet.
func (g *loadgen) issue(i int, now int64) {
	s := &g.slots[i]
	s.seq = g.nextSeq
	g.nextSeq++
	s.combo = int(s.seq % uint64(len(g.combos)))
	s.sentAt = now
	s.custAt = 0
	s.active = true
	g.attempted++
	c := &g.combos[s.combo]
	pkt := g.sbuf[:len(c.fwd)]
	copy(pkt, c.fwd)
	stampPayload(pkt[offPayloadBlock:], s.seq, i)
	g.send(g.outFD, pkt)
}

func stampPayload(p []byte, seq uint64, slot int) {
	binary.BigEndian.PutUint64(p[0:8], seq)
	binary.BigEndian.PutUint32(p[8:12], uint32(slot))
}

// match finds the live slot a received payload belongs to. Replies to a
// round trip that already timed out are counted stale and ignored.
func (g *loadgen) match(pkt []byte, payloadOff int) (int, bool) {
	if len(pkt) < payloadOff+payloadSeqLen {
		g.fail("datagram of %d bytes is too short", len(pkt))
		return 0, false
	}
	p := pkt[payloadOff:]
	i := int(binary.BigEndian.Uint32(p[8:12]))
	if i >= len(g.slots) || !g.slots[i].active || g.slots[i].seq != binary.BigEndian.Uint64(p[0:8]) {
		g.stale++
		return 0, false
	}
	return i, true
}

// onForward handles the forward leg arriving at the customer socket:
// verify the rewrite, then answer with the return packet.
func (g *loadgen) onForward(pkt []byte, now int64) {
	off := g.mode.fwdPayloadOff()
	i, ok := g.match(pkt, off)
	if !ok {
		return
	}
	s := &g.slots[i]
	c := &g.combos[s.combo]
	want := c.fwd[offPayloadBlock+payloadSeqLen:]
	switch {
	case !bytes.Equal(pkt[off+payloadSeqLen:], want):
		g.fail("seq %d: forward payload differs", s.seq)
	case !g.mode.rewrites:
	case pkt[offIPProto] != wire.ProtoShim || shim.Type(pkt[offShim]) != shim.TypeDelivered:
		g.fail("seq %d: forward leg is not a TypeDelivered shim packet", s.seq)
	case addrAt(pkt, offIPDst) != c.cust || addrAt(pkt, offIPSrc) != c.flow.src:
		g.fail("seq %d: delivered %v→%v, want %v→%v", s.seq,
			addrAt(pkt, offIPSrc), addrAt(pkt, offIPDst), c.flow.src, c.cust)
	case !bytes.Equal(pkt[offShim+8:offBody], c.flow.nonce[:]) || addrAt(pkt, offBody) != anycastAddr:
		g.fail("seq %d: delivered shim lost its nonce or return address", s.seq)
	}
	s.custAt = now
	out := g.sbuf[:len(c.ret)]
	copy(out, c.ret)
	stampPayload(out[offPayloadClear:], s.seq, i)
	g.send(g.custFD, out)
}

// onReturn handles the return leg arriving at the outside socket and
// reports the slot that completed.
func (g *loadgen) onReturn(pkt []byte, now int64) (int, bool) {
	off := g.mode.retPayloadOff()
	i, ok := g.match(pkt, off)
	if !ok {
		return 0, false
	}
	s := &g.slots[i]
	c := &g.combos[s.combo]
	want := c.fwd[offPayloadBlock+payloadSeqLen:]
	switch {
	case s.custAt == 0:
		g.fail("seq %d: return leg arrived before the forward leg", s.seq)
	case !bytes.Equal(pkt[off+payloadSeqLen:], want):
		g.fail("seq %d: echoed payload differs", s.seq)
	case !g.mode.rewrites:
	case pkt[offIPProto] != wire.ProtoShim || shim.Type(pkt[offShim]) != shim.TypeReturnDelivered:
		g.fail("seq %d: return leg is not a TypeReturnDelivered shim packet", s.seq)
	case addrAt(pkt, offIPSrc) != anycastAddr || addrAt(pkt, offIPDst) != c.flow.src:
		g.fail("seq %d: return %v→%v, want %v→%v", s.seq,
			addrAt(pkt, offIPSrc), addrAt(pkt, offIPDst), anycastAddr, c.flow.src)
	default:
		var pt [16]byte
		c.blk.Decrypt(pt[:], pkt[offBody:offBody+16])
		if addrAt(pt[:], 0) != c.cust || [4]byte(pt[12:16]) != g.magic {
			g.fail("seq %d: hidden source does not open to %v under Ks", s.seq, c.cust)
		}
	}
	return i, true
}

// phase is the outcome of one closed-loop run at a fixed W.
type phase struct {
	elapsed time.Duration
	rtts    []int32       // ns per completed round trip
	fwdLegs []int32       // send → customer socket
	retLegs []int32       // customer socket → outside socket
	cpu     time.Duration // generator process CPU over the phase
}

// kpps is k datagrams/s forwarded by the target over the phase, both
// legs of every completed round trip.
func (p *phase) kpps() float64 {
	return 2 * float64(len(p.rtts)) / p.elapsed.Seconds() / 1e3
}

// run keeps w round trips in flight for dur and returns when all have
// completed or timed out. The generator's thread is confined to cpus for
// the duration (nil: wherever the scheduler puts it). With a tracer, 1 in
// 16 round trips is recorded as a span parenting its forward and return
// legs (w = 1 only: spans on one lane must not overlap).
func (g *loadgen) run(w int, dur time.Duration, cpus *cpuSet, tr *tracer, parent int) *phase {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if cpus != nil {
		if orig, err := getAffinity(0); err == nil && setAffinity(0, cpus) == nil {
			// The runtime reuses this thread: hand it back unconfined.
			defer func() { _ = setAffinity(0, orig) }()
		}
	}
	g.slots = make([]slot, w)
	ph := &phase{}
	cpu0 := selfCPU()
	start := g.now()
	deadline := start + int64(dur)
	for i := range g.slots {
		g.issue(i, g.now())
	}
	inflight := w
	lastScan := start
	// retire ends slot i's round trip and re-issues it while time remains.
	retire := func(i int, now int64) {
		if now < deadline {
			g.issue(i, now)
			return
		}
		g.slots[i].active = false
		inflight--
	}
	for inflight > 0 {
		n, err := syscall.EpollWait(g.epfd, g.events, 10)
		if err != nil && err != syscall.EINTR {
			g.fail("epoll_wait: %v", err)
			break
		}
		for _, ev := range g.events[:max(n, 0)] {
			fd := int(ev.Fd)
			for {
				pkt, ok := g.recv(fd)
				if !ok {
					break
				}
				now := g.now()
				if fd == g.custFD {
					g.onForward(pkt, now)
				} else if i, done := g.onReturn(pkt, now); done {
					s := g.slots[i]
					ph.rtts = append(ph.rtts, int32(now-s.sentAt))
					ph.fwdLegs = append(ph.fwdLegs, int32(s.custAt-s.sentAt))
					ph.retLegs = append(ph.retLegs, int32(now-s.custAt))
					if tr != nil && w == 1 && len(ph.rtts)%16 == 0 {
						id := tr.add(parent, "round-trip", "loadgen", g.t0.Add(time.Duration(s.sentAt)), g.t0.Add(time.Duration(now)))
						tr.add(id, "forward-leg", "neutralizerd", g.t0.Add(time.Duration(s.sentAt)), g.t0.Add(time.Duration(s.custAt)))
						tr.add(id, "return-leg", "neutralizerd", g.t0.Add(time.Duration(s.custAt)), g.t0.Add(time.Duration(now)))
					}
					retire(i, now)
				}
				if w == 1 {
					break // at most one datagram can be queued: skip the EAGAIN read
				}
			}
		}
		now := g.now()
		if n <= 0 || now-lastScan > int64(10*time.Millisecond) {
			lastScan = now
			for i := range g.slots {
				if s := &g.slots[i]; s.active && now-s.sentAt > int64(slotTimeout) {
					g.timeouts++
					retire(i, now)
				}
			}
		}
	}
	ph.elapsed = time.Duration(g.now() - start)
	ph.cpu = selfCPU() - cpu0
	return ph
}
