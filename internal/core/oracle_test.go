package core_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net/netip"
	"time"

	"netneutral/internal/core"
	"netneutral/internal/crypto/aesutil"
	"netneutral/internal/crypto/keys"
	"netneutral/internal/crypto/lightrsa"
)

// oracle is the paper's §3 neutralizer written once more, small and
// obviously right, for ProcessScratch to be compared against: it
// allocates freely, derives every key with Schedule.SessionKey, runs the
// address block through crypto/aes (aesutil.EncryptAddr/DecryptAddr),
// reads and writes packets by fixed offset with encoding/binary, sums the
// header a byte pair at a time, and does its epoch arithmetic on
// time.Time. It shares no scratch, cache, ring, software AES or
// serializer with the code it checks.
type oracle struct {
	sched    *keys.Schedule
	start    time.Time
	epochLen time.Duration
	now      time.Time
	anycast  netip.Addr
	customer func(netip.Addr) bool
	rand     io.Reader
	helper   netip.Addr           // §3.2 offload target, if valid
	alt      *lightrsa.PrivateKey // §3.2 alternative identity, if any
	// §3.4: flows that already hold a dynamic address, and whether the
	// pool can serve another. Which address a new flow gets is the
	// table's business; the caller passes the one the neutralizer chose
	// and checks it with DynFlowOf.
	dynPool netip.Prefix
	dynLive map[[2]netip.Addr]netip.Addr
	dynFull bool
	hinted  bool // the last packet served took its source address from the hint
}

var errMalformed = errors.New("oracle: malformed")

// classOf names the outcome class of a ProcessScratch or oracle error.
func classOf(err error) string {
	if err == nil {
		return "served"
	}
	for _, c := range []error{core.ErrNotShim, core.ErrStaleEpoch, core.ErrBadAddrBlock, core.ErrNotCustomer,
		core.ErrNotFromCustomer, core.ErrNoAltIdentity, core.ErrDynPoolExhausted} {
		if errors.Is(err, c) {
			return c.Error()
		}
	}
	return "malformed"
}

func pairSum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(b[i])<<8 | uint32(b[i+1])
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum > 0xffff {
		sum = sum>>16 + sum&0xffff
	}
	return ^uint16(sum)
}

func addr4(b []byte) netip.Addr { return netip.AddrFrom4([4]byte(b[:4])) }

// packet writes IP(src→dst) | shim fixed header | body | payload.
func packet(src, dst netip.Addr, tos, typ, flags, inner uint8, epoch uint32, nonce, body, payload []byte) []byte {
	p := make([]byte, 36, 36+len(body)+len(payload))
	p[0], p[1], p[8], p[9] = 0x45, tos, 64, 253
	binary.BigEndian.PutUint16(p[2:], uint16(cap(p)))
	s4, d4 := src.As4(), dst.As4()
	copy(p[12:], s4[:])
	copy(p[16:], d4[:])
	binary.BigEndian.PutUint16(p[10:], pairSum(p[:20]))
	p[20], p[21], p[22] = typ, flags, inner
	binary.BigEndian.PutUint32(p[24:], epoch)
	copy(p[28:36], nonce)
	return append(append(p, body...), payload...)
}

func (o *oracle) epoch() uint32 {
	if d := o.now.Sub(o.start); d > 0 {
		return uint32(d / o.epochLen)
	}
	return 0
}

func (o *oracle) key(epoch uint32, nonce []byte, src netip.Addr) aesutil.Key {
	ks, err := o.sched.SessionKey(keys.Epoch(epoch), keys.Nonce(nonce), src)
	if err != nil {
		panic(err)
	}
	return ks
}

func (o *oracle) draw(n int) []byte {
	b := make([]byte, n)
	if _, err := io.ReadFull(o.rand, b); err != nil {
		panic(err)
	}
	return b
}

// lenPrefixed splits a 16-bit-length-prefixed field off the front of b.
func lenPrefixed(b []byte) (field, rest []byte, ok bool) {
	if len(b) < 2 || len(b) < 2+int(binary.BigEndian.Uint16(b)) {
		return nil, nil, false
	}
	n := 2 + int(binary.BigEndian.Uint16(b))
	return b[2:n], b[n:], true
}

// process is what the neutralizer owes for pkt: one packet, or the class
// of refusal. dynHint is the source address the neutralizer's own output
// carries, used only where a fresh dynamic address is due.
func (o *oracle) process(pkt []byte, dynHint netip.Addr) ([]byte, error) {
	if len(pkt) < 20 || pkt[0]>>4 != 4 || pkt[0]&0xf < 5 || len(pkt) < int(pkt[0]&0xf)*4 {
		return nil, errMalformed
	}
	ihl, total := int(pkt[0]&0xf)*4, int(binary.BigEndian.Uint16(pkt[2:]))
	if total < ihl || total > len(pkt) || pairSum(pkt[:ihl]) != 0 {
		return nil, errMalformed
	}
	if pkt[9] != 253 {
		return nil, core.ErrNotShim
	}
	tos, src, sh := pkt[1], addr4(pkt[12:]), pkt[ihl:total]
	if len(sh) < 16 {
		return nil, errMalformed
	}
	typ, flags, inner, pktEpoch, nonce, body := sh[0], sh[1], sh[2], binary.BigEndian.Uint32(sh[4:]), sh[8:16], sh[16:]
	cur := o.epoch()
	stale := pktEpoch != cur && (cur == 0 || pktEpoch != cur-1)
	switch typ {
	case 1: // key-setup request
		pubBytes, rest, ok := lenPrefixed(body)
		if !ok || flags&0x10 != 0 && len(rest) < 24 {
			return nil, errMalformed
		}
		pub, _, err := lightrsa.UnmarshalPublicKey(pubBytes)
		if err != nil {
			return nil, errMalformed
		}
		grant := o.draw(8)
		ks := o.key(cur, grant, src)
		grant = append(grant, ks[:]...)
		if o.helper.IsValid() {
			return packet(src, o.helper, tos, 1, flags|0x10, 0, cur, nil, append(bytes.Clone(body[:2+len(pubBytes)]), grant...), nil), nil
		}
		ct, err := pub.Encrypt(o.rand, grant)
		if err != nil {
			return nil, errMalformed
		}
		return packet(o.anycast, src, tos, 2, 0, 0, cur, nil, append(binary.BigEndian.AppendUint16(nil, uint16(len(ct))), ct...), nil), nil
	case 3: // data
		if len(body) < 16 {
			return nil, errMalformed
		}
		if stale {
			return nil, core.ErrStaleEpoch
		}
		dst, _, err := aesutil.DecryptAddr(o.key(pktEpoch, nonce, src), aesutil.AddrBlock(body[:16]))
		if err != nil {
			return nil, core.ErrBadAddrBlock
		}
		if !o.customer(dst) {
			return nil, core.ErrNotCustomer
		}
		a4 := o.anycast.As4()
		if flags&0x01 == 0 {
			return packet(src, dst, tos, 4, 0, inner, pktEpoch, nonce, a4[:], body[16:]), nil
		}
		grant := o.draw(8)
		ks := o.key(cur, grant, src)
		return packet(src, dst, tos, 4, 0x02, inner, cur, nonce, append(append(a4[:], grant...), ks[:]...), body[16:]), nil
	case 5, 7: // return, key fetch
		if len(body) < 4 {
			return nil, errMalformed
		}
		if !o.customer(src) {
			return nil, core.ErrNotFromCustomer
		}
		peer := addr4(body)
		if typ == 7 {
			grant := o.draw(8)
			ks := o.key(cur, grant, peer)
			return packet(o.anycast, src, tos, 8, 0, 0, cur, grant, append(grant, ks[:]...), nil), nil
		}
		if stale {
			return nil, core.ErrStaleEpoch
		}
		hidden, err := aesutil.EncryptAddr(o.key(pktEpoch, nonce, peer), src, [8]byte(o.draw(8)))
		if err != nil {
			panic(err)
		}
		visible := o.anycast
		if flags&0x04 != 0 {
			visible = src
		} else if flags&0x08 != 0 {
			live, ok := o.dynLive[[2]netip.Addr{src, peer}]
			switch {
			case ok:
				visible = live
			case o.dynFull || !o.dynPool.IsValid():
				return nil, core.ErrDynPoolExhausted
			case !o.dynPool.Contains(dynHint):
				return nil, errors.New("oracle: an address from the dynamic pool was due")
			default:
				visible, o.hinted = dynHint, true
			}
		}
		return packet(visible, peer, tos, 6, 0, inner, pktEpoch, nonce, hidden[:], body[4:]), nil
	case 9: // §3.2 alternative data
		ct, payload, ok := lenPrefixed(body)
		if !ok {
			return nil, errMalformed
		}
		if o.alt == nil {
			return nil, core.ErrNoAltIdentity
		}
		pt, err := o.alt.Decrypt(ct)
		if err != nil || len(pt) < 4 {
			return nil, core.ErrBadAddrBlock
		}
		if !o.customer(addr4(pt)) {
			return nil, core.ErrNotCustomer
		}
		a4 := o.anycast.As4()
		return packet(src, addr4(pt), tos, 4, 0, inner, pktEpoch, nonce, a4[:], payload), nil
	}
	return nil, errMalformed // a type only end hosts consume, or none at all
}
