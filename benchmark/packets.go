//go:build linux

package main

import (
	"encoding/binary"
	"math/rand"
	"net/netip"
	"time"

	"netneutral/internal/crypto/aesutil"
	"netneutral/internal/crypto/keys"
	"netneutral/internal/shim"
	"netneutral/internal/wire"
)

// The daemon's flag defaults; the in-process workloads use the same so
// one packet generator serves both.
var (
	anycastAddr = netip.MustParseAddr("10.200.0.1")
	customerNet = netip.MustParsePrefix("10.10.0.0/16")
	outsideNet  = netip.MustParsePrefix("172.16.0.0/12")
)

// foreverEpoch is the epoch length both sides run with: every packet sits
// in epoch 0 and no wall-clock rotation can invalidate a key mid-run.
const foreverEpoch = 1000000 * time.Hour

// Byte offsets the verifiers read directly, independent of the decoders
// under test: IPv4 header (no options) then the fixed shim header.
const (
	offIPProto = 9
	offIPSrc   = 12
	offIPDst   = 16
	offShim    = wire.IPv4HeaderLen
	offBody    = offShim + shim.HeaderLen
	// Payload offsets by shim body size: 16-byte address block
	// (TypeData, TypeReturnDelivered) or 4-byte clear address
	// (TypeDelivered, TypeReturn).
	offPayloadBlock = offBody + aesutil.BlockSize
	offPayloadClear = offBody + 4
)

// flow is one outside source's conduit: the (nonce, src) pair the
// stateless neutralizer re-derives Ks from.
type flow struct {
	src   netip.Addr
	nonce keys.Nonce
	ks    aesutil.Key
}

// world is the seeded address and key plan shared by the daemon and core
// workloads: the master-key root, outside flows and customer addresses.
type world struct {
	rng       *rand.Rand
	root      aesutil.Key
	sched     *keys.Schedule
	customers []netip.Addr
	payload   []byte               // randPayload's reusable buffer
	buf       wire.SerializeBuffer // packet builders serialize here, then copy out
	mem       arena                // where built packets live
}

// arena hands out packet storage from 1 MB pointer-free chunks. A quarter
// of a million packets allocated one by one made set-up mostly allocator
// and collector work — the memory-bound code this host is least steady
// at — and left peak RSS anywhere between one and two sets with the
// collector's pacing.
type arena struct{ free []byte }

// hold copies p into the arena and returns the copy.
func (a *arena) hold(p []byte) []byte {
	if len(a.free) < len(p) {
		a.free = make([]byte, max(1<<20, len(p)))
	}
	out := a.free[:len(p):len(p)]
	a.free = a.free[len(p):]
	copy(out, p)
	return out
}

func newWorld(rng *rand.Rand, customers int) *world {
	w := &world{rng: rng}
	rng.Read(w.root[:])
	// Anchored like the daemon anchors its own schedule; epoch keys depend
	// only on (root, epoch number), so the two agree on epoch 0.
	w.sched = keys.NewSchedule(w.root, time.Now().Truncate(foreverEpoch), foreverEpoch)
	seen := make(map[netip.Addr]bool)
	for len(w.customers) < customers {
		a := randAddrIn(rng, customerNet)
		if !seen[a] {
			seen[a] = true
			w.customers = append(w.customers, a)
		}
	}
	return w
}

// randAddrIn draws a host address inside p (never the network address).
func randAddrIn(rng *rand.Rand, p netip.Prefix) netip.Addr {
	base := p.Masked().Addr().As4()
	host := uint32(1 + rng.Intn(1<<(32-p.Bits())-2))
	v := binary.BigEndian.Uint32(base[:]) | host
	var out [4]byte
	binary.BigEndian.PutUint32(out[:], v)
	return netip.AddrFrom4(out)
}

// newFlow draws a fresh outside (src, nonce) and derives its session key
// the way a key-setup exchange would have.
func (w *world) newFlow() (flow, error) {
	f := flow{src: randAddrIn(w.rng, outsideNet)}
	w.rng.Read(f.nonce[:])
	ks, err := w.sched.SessionKey(0, f.nonce, f.src)
	if err != nil {
		return flow{}, err
	}
	f.ks = ks
	return f, nil
}

func (w *world) randSalt() (salt [8]byte) {
	binary.BigEndian.PutUint64(salt[:], w.rng.Uint64())
	return salt
}

// randPayload returns n seeded bytes in a buffer the next call reuses:
// packet builders copy it, and a quarter of a million one-shot payloads
// would otherwise sit in the heap as garbage until the next collection.
func (w *world) randPayload(n int) []byte {
	if cap(w.payload) < n {
		w.payload = make([]byte, n)
	}
	p := w.payload[:n]
	// A word at a time: Rand.Read draws a byte at a time and was a third
	// of set-up.
	i := 0
	for ; i+8 <= n; i += 8 {
		binary.BigEndian.PutUint64(p[i:], w.rng.Uint64())
	}
	w.rng.Read(p[i:])
	return p
}

// shimInto serializes IP(src→dst) | shim | payload into buf and returns
// the packet, which the next use of buf overwrites.
func shimInto(buf *wire.SerializeBuffer, src, dst netip.Addr, sh *shim.Header, payload []byte) ([]byte, error) {
	buf.Clear(wire.IPv4HeaderLen + sh.EncodedLen())
	buf.PushPayload(payload)
	if err := sh.SerializeTo(buf); err != nil {
		return nil, err
	}
	ip := &wire.IPv4{TTL: wire.MaxTTL, Protocol: wire.ProtoShim, Src: src, Dst: dst}
	if err := ip.SerializeTo(buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// buildShim is shimInto a buffer of the packet's own.
func buildShim(src, dst netip.Addr, sh *shim.Header, payload []byte) ([]byte, error) {
	return shimInto(new(wire.SerializeBuffer), src, dst, sh, payload)
}

// shim builds one packet of a seeded set, in the world's arena.
func (w *world) shim(src netip.Addr, sh *shim.Header, payload []byte) ([]byte, error) {
	pkt, err := shimInto(&w.buf, src, anycastAddr, sh, payload)
	if err != nil {
		return nil, err
	}
	return w.mem.hold(pkt), nil
}

// forwardPacket is an outside→customer TypeData packet: dst sealed in the
// hidden address block under the flow's Ks.
func (w *world) forwardPacket(f flow, dst netip.Addr, epoch keys.Epoch, payload []byte) ([]byte, error) {
	blk, err := aesutil.EncryptAddr(f.ks, dst, w.randSalt())
	if err != nil {
		return nil, err
	}
	return w.shim(f.src, &shim.Header{
		Type: shim.TypeData, InnerProto: wire.ProtoUDP, Epoch: epoch, Nonce: f.nonce, HiddenAddr: blk,
	}, payload)
}

// returnPacket is a customer→outside TypeReturn packet naming the
// initiator in clear (it never leaves the friendly domain).
func (w *world) returnPacket(f flow, customer netip.Addr, payload []byte) ([]byte, error) {
	return w.shim(customer, &shim.Header{
		Type: shim.TypeReturn, InnerProto: wire.ProtoUDP, Nonce: f.nonce, ClearAddr: f.src,
	}, payload)
}

// plainUDP is a plain IPv4/UDP packet of totalLen bytes (at least the two
// headers) with a zero payload: the forwarding baseline's packets, sized
// like the shim packets they stand in for, and eval's empty probes.
func plainUDP(src, dst netip.Addr, sport, dport uint16, totalLen int) ([]byte, error) {
	const headers = wire.IPv4HeaderLen + wire.UDPHeaderLen
	payload := make([]byte, max(totalLen, headers)-headers)
	buf := wire.NewSerializeBuffer(headers, len(payload))
	buf.PushPayload(payload)
	if err := wire.SerializeLayers(buf,
		&wire.IPv4{TTL: wire.MaxTTL, Protocol: wire.ProtoUDP, Src: src, Dst: dst},
		&wire.UDP{SrcPort: sport, DstPort: dport},
	); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// addrAt reads the 4-byte address at off without touching the decoders.
func addrAt(pkt []byte, off int) netip.Addr {
	return netip.AddrFrom4([4]byte(pkt[off : off+4]))
}
