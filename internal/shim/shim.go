// Package shim implements the neutralizer shim layer: the header the
// paper places "between IP and an upper layer", carried in IP packets
// whose protocol field is the fixed, known value wire.ProtoShim.
//
// The shim realizes the packet diagrams of the paper's Figure 2. Each
// message type corresponds to one arrow:
//
//	KeySetupRequest   (Fig 2a, pkt 1) source → neutralizer: one-time RSA public key S
//	KeySetupResponse  (Fig 2a, pkt 2) neutralizer → source: E_S(nonce, Ks)
//	Data              (Fig 2b, pkt 3) source → neutralizer: nonce clear, dst encrypted under Ks
//	Delivered         (Fig 2b, pkt 4) neutralizer → customer: dst revealed, optional (nonce', Ks') grant stamped
//	Return            (Fig 2b, pkt 5) customer → neutralizer: initiator addr + nonce clear
//	ReturnDelivered   (Fig 2b, pkt 6) neutralizer → initiator: src encrypted under Ks, anycast as src
//	KeyFetchRequest   (§3.3) customer → neutralizer: plaintext key request for a peer
//	KeyFetchResponse  (§3.3) neutralizer → customer: plaintext (nonce, Ks)
//	AltData           (§3.2 alternative) source → neutralizer: dst under the neutralizer's certified public key
//
// Every header carries the master-key epoch so the stateless neutralizer
// knows which KM to derive session keys from, and an InnerProto octet
// describing what the shim payload contains (usually UDP).
package shim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"slices"

	"netneutral/internal/crypto/aesutil"
	"netneutral/internal/crypto/keys"
	"netneutral/internal/wire"
)

// Type enumerates shim message types.
type Type uint8

// Shim message types.
const (
	TypeInvalid Type = iota
	TypeKeySetupRequest
	TypeKeySetupResponse
	TypeData
	TypeDelivered
	TypeReturn
	TypeReturnDelivered
	TypeKeyFetchRequest
	TypeKeyFetchResponse
	TypeAltData
)

var typeNames = [...]string{
	"Invalid", "KeySetupRequest", "KeySetupResponse", "Data", "Delivered",
	"Return", "ReturnDelivered", "KeyFetchRequest", "KeyFetchResponse", "AltData",
}

func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Header flag bits.
const (
	// FlagKeyRequest on a Data packet asks the neutralizer to stamp a
	// fresh (nonce', Ks') grant into the Delivered packet.
	FlagKeyRequest uint8 = 1 << iota
	// FlagGrant on a Delivered packet indicates a stamped grant is present.
	FlagGrant
	// FlagNoAnonymize on a Return packet asks the neutralizer to forward
	// without source anonymization (§3.4: customers who purchased
	// guaranteed service may opt out).
	FlagNoAnonymize
	// FlagDynamicAddr on a Data/Return packet asks for a per-flow dynamic
	// address instead of full anonymization (§3.4 QoS remedy: the flow is
	// identifiable, the customer is not).
	FlagDynamicAddr
	// FlagOffloaded marks a KeySetupRequest the neutralizer has delegated
	// to a customer helper (§3.2 offload); the stamped plaintext grant
	// rides in the body for the helper to encrypt.
	FlagOffloaded
)

// HeaderLen is the fixed shim header size:
// Type(1) Flags(1) InnerProto(1) Reserved(1) Epoch(4) Nonce(8).
const HeaderLen = 16

// GrantLen is the size of a stamped key grant: nonce(8) + key(16).
const GrantLen = 8 + aesutil.KeySize

// DataOverhead is the total shim bytes added to a forward data packet
// (fixed header + encrypted address block). The paper reports 20 bytes of
// added material (112-byte total for a 64-byte-payload UDP packet); our
// encoding costs 32 — same order; the E3 experiment rows record the
// measured overhead (README.md "Reproducing the paper's numbers").
const DataOverhead = HeaderLen + aesutil.BlockSize

// Errors returned by shim decoding.
var (
	ErrTooShort = errors.New("shim: data too short")
	ErrBadType  = errors.New("shim: unknown message type")
	ErrBadBody  = errors.New("shim: body inconsistent with type/flags")
	ErrNotIPv4  = errors.New("shim: address is not IPv4")
)

// Grant is a stamped (nonce, key) pair: the refresh material a
// neutralizer inserts into a key-requesting packet and the destination
// returns under end-to-end encryption.
type Grant struct {
	Nonce keys.Nonce
	Key   aesutil.Key
}

// encodeTo writes the grant into dst (len >= GrantLen) without
// allocating.
func (g Grant) encodeTo(dst []byte) {
	copy(dst[:8], g.Nonce[:])
	copy(dst[8:GrantLen], g.Key[:])
}

// UnmarshalGrant decodes a grant.
func UnmarshalGrant(b []byte) (Grant, error) {
	if len(b) < GrantLen {
		return Grant{}, ErrTooShort
	}
	var g Grant
	copy(g.Nonce[:], b[:8])
	copy(g.Key[:], b[8:GrantLen])
	return g, nil
}

// Header is a decoded shim message: DecodeFromBytes reads one from the
// IP payload of a wire.ProtoShim datagram, Put writes one (SerializeTo:
// in front of a wire.SerializeBuffer).
//
// Only the fields relevant to a given Type are meaningful; see the type
// constants for which.
type Header struct {
	Type       Type
	Flags      uint8
	InnerProto uint8 // IP protocol number of the payload (0 = none/opaque)
	Epoch      keys.Epoch
	Nonce      keys.Nonce

	// PublicKey carries the marshaled one-time RSA key
	// (TypeKeySetupRequest) or is nil.
	PublicKey []byte
	// Ciphertext carries an RSA ciphertext (TypeKeySetupResponse: E_S(nonce‖Ks);
	// TypeAltData: E_neut(dst‖salt)).
	Ciphertext []byte
	// HiddenAddr is the AES-encrypted address block (TypeData: the real
	// destination; TypeReturnDelivered: the real source).
	HiddenAddr aesutil.AddrBlock
	// ClearAddr is an address carried in clear where the protocol allows
	// it (TypeDelivered: the neutralizer's unicast address for returns;
	// TypeReturn: the outside initiator; TypeKeyFetchRequest: the peer).
	ClearAddr netip.Addr
	// Grant is the stamped key material (TypeDelivered with FlagGrant;
	// TypeKeyFetchResponse; TypeKeySetupRequest with FlagOffloaded).
	Grant Grant

	payload []byte
}

// Payload returns what the shim carries (an InnerProto datagram): the
// bytes after the fixed header and the type-dependent body.
func (h *Header) Payload() []byte { return h.payload }

// HasGrant reports whether the header carries grant material.
func (h *Header) HasGrant() bool {
	switch h.Type {
	case TypeDelivered, TypeKeySetupRequest:
		return h.Flags&FlagGrant != 0 || h.Flags&FlagOffloaded != 0
	case TypeKeyFetchResponse:
		return true
	default:
		return false
	}
}

// bodyLen returns the encoded body size for the header's type and flags.
func (h *Header) bodyLen() (int, error) {
	switch h.Type {
	case TypeKeySetupRequest:
		n := 2 + len(h.PublicKey)
		if h.Flags&FlagOffloaded != 0 {
			n += GrantLen
		}
		return n, nil
	case TypeKeySetupResponse, TypeAltData:
		return 2 + len(h.Ciphertext), nil
	case TypeData, TypeReturnDelivered:
		return aesutil.BlockSize, nil
	case TypeDelivered:
		n := 4
		if h.Flags&FlagGrant != 0 {
			n += GrantLen
		}
		return n, nil
	case TypeReturn, TypeKeyFetchRequest:
		return 4, nil
	case TypeKeyFetchResponse:
		return GrantLen, nil
	default:
		return 0, ErrBadType
	}
}

// EncodedLen returns the total serialized size of the header (fixed
// header plus type/flag-dependent body), or 0 for an unknown type. Use
// it to reserve exact buffer headroom before SerializeTo.
func (h *Header) EncodedLen() int {
	bl, err := h.bodyLen()
	if err != nil {
		return 0
	}
	return HeaderLen + bl
}

// SerializeTo prepends the header. The buffer's current
// contents become the shim payload.
func (h *Header) SerializeTo(b *wire.SerializeBuffer) error {
	n := h.EncodedLen()
	if n == 0 {
		return ErrBadType
	}
	return h.Put(b.PrependBytes(n))
}

// Put writes the header into buf[:h.EncodedLen()]. It is the one writer
// of the layout: SerializeTo prepends through it, and AppendPacket, which
// lays a whole packet out at once, fills its slot in place.
// Only the fields the header's Type and Flags call for are read.
func (h *Header) Put(buf []byte) error {
	bl, err := h.bodyLen()
	if err != nil {
		return err
	}
	buf = buf[:HeaderLen+bl]
	buf[0] = byte(h.Type)
	buf[1] = h.Flags
	buf[2] = h.InnerProto
	buf[3] = 0
	binary.BigEndian.PutUint32(buf[4:8], uint32(h.Epoch))
	copy(buf[8:16], h.Nonce[:])
	body := buf[HeaderLen:]
	switch h.Type {
	case TypeKeySetupRequest:
		binary.BigEndian.PutUint16(body[0:2], uint16(len(h.PublicKey)))
		copy(body[2:], h.PublicKey)
		if h.Flags&FlagOffloaded != 0 {
			h.Grant.encodeTo(body[2+len(h.PublicKey):])
		}
	case TypeKeySetupResponse, TypeAltData:
		binary.BigEndian.PutUint16(body[0:2], uint16(len(h.Ciphertext)))
		copy(body[2:], h.Ciphertext)
	case TypeData, TypeReturnDelivered:
		copy(body, h.HiddenAddr[:])
	case TypeDelivered:
		if err := putAddr4(body[0:4], h.ClearAddr); err != nil {
			return err
		}
		if h.Flags&FlagGrant != 0 {
			h.Grant.encodeTo(body[4:])
		}
	case TypeReturn, TypeKeyFetchRequest:
		if err := putAddr4(body[0:4], h.ClearAddr); err != nil {
			return err
		}
	case TypeKeyFetchResponse:
		h.Grant.encodeTo(body)
	}
	return nil
}

// DecodeFromBytes leaves h describing data.
func (h *Header) DecodeFromBytes(data []byte) error {
	if len(data) < HeaderLen {
		return ErrTooShort
	}
	h.Type = Type(data[0])
	h.Flags = data[1]
	h.InnerProto = data[2]
	h.Epoch = keys.Epoch(binary.BigEndian.Uint32(data[4:8]))
	copy(h.Nonce[:], data[8:16])
	h.PublicKey = nil
	h.Ciphertext = nil
	h.ClearAddr = netip.Addr{}
	h.Grant = Grant{}

	body := data[HeaderLen:]
	used := 0
	switch h.Type {
	case TypeKeySetupRequest:
		if len(body) < 2 {
			return ErrTooShort
		}
		n := int(binary.BigEndian.Uint16(body[0:2]))
		if len(body) < 2+n {
			return ErrTooShort
		}
		h.PublicKey = body[2 : 2+n]
		used = 2 + n
		if h.Flags&FlagOffloaded != 0 {
			g, err := UnmarshalGrant(body[used:])
			if err != nil {
				return err
			}
			h.Grant = g
			used += GrantLen
		}
	case TypeKeySetupResponse, TypeAltData:
		if len(body) < 2 {
			return ErrTooShort
		}
		n := int(binary.BigEndian.Uint16(body[0:2]))
		if len(body) < 2+n {
			return ErrTooShort
		}
		h.Ciphertext = body[2 : 2+n]
		used = 2 + n
	case TypeData, TypeReturnDelivered:
		if len(body) < aesutil.BlockSize {
			return ErrTooShort
		}
		copy(h.HiddenAddr[:], body[:aesutil.BlockSize])
		used = aesutil.BlockSize
	case TypeDelivered:
		if len(body) < 4 {
			return ErrTooShort
		}
		h.ClearAddr = netip.AddrFrom4([4]byte(body[0:4]))
		used = 4
		if h.Flags&FlagGrant != 0 {
			g, err := UnmarshalGrant(body[used:])
			if err != nil {
				return err
			}
			h.Grant = g
			used += GrantLen
		}
	case TypeReturn, TypeKeyFetchRequest:
		if len(body) < 4 {
			return ErrTooShort
		}
		h.ClearAddr = netip.AddrFrom4([4]byte(body[0:4]))
		used = 4
	case TypeKeyFetchResponse:
		g, err := UnmarshalGrant(body)
		if err != nil {
			return err
		}
		h.Grant = g
		used = GrantLen
	default:
		return ErrBadType
	}
	h.payload = body[used:]
	return nil
}

// AppendPacket appends IP(src→dst, ToS as given) | shim | payload to b and
// returns the extended slice: the packet is laid out once — both headers
// written in place by wire.IPv4.Put and Header.Put, then one copy of the
// payload. Every packet the neutralizer emits is written here, into a
// recycled buffer (core.Scratch.emit). Carrying the ToS octet verbatim is
// the §3.4 DiffServ guarantee: "a neutralizer will not modify the
// Differentiated Services Code Point".
func AppendPacket(b []byte, src, dst netip.Addr, tos uint8, sh *Header, payload []byte) ([]byte, error) {
	off, hl := len(b), wire.IPv4HeaderLen+sh.EncodedLen()
	b = slices.Grow(b, hl+len(payload))[:off+hl]
	var ip wire.IPv4 // set field by field: a composite literal is built aside and copied in
	ip.TOS, ip.TTL, ip.Protocol, ip.Src, ip.Dst = tos, wire.MaxTTL, wire.ProtoShim, src, dst
	if err := ip.Put(b[off:], hl+len(payload)); err != nil {
		return nil, err
	}
	if err := sh.Put(b[off+wire.IPv4HeaderLen:]); err != nil {
		return nil, err
	}
	return append(b, payload...), nil
}

// BuildPacket is AppendPacket into a fresh, caller-owned packet.
func BuildPacket(src, dst netip.Addr, tos uint8, sh *Header, payload []byte) ([]byte, error) {
	return AppendPacket(nil, src, dst, tos, sh, payload)
}

func putAddr4(dst []byte, a netip.Addr) error {
	if !a.Is4() {
		return ErrNotIPv4
	}
	a4 := a.As4()
	copy(dst, a4[:])
	return nil
}

// PeekType returns the shim message type of a serialized shim payload
// without full decoding — the classifier primitive a discriminatory ISP
// would use to detect key-setup packets (§3.6).
func PeekType(shimBytes []byte) (Type, bool) {
	if len(shimBytes) < 1 {
		return TypeInvalid, false
	}
	t := Type(shimBytes[0])
	if t == TypeInvalid || int(t) >= len(typeNames) {
		return TypeInvalid, false
	}
	return t, true
}

// SetupPlaintextLen is the length of the plaintext protected by the
// key-setup RSA encryption: nonce(8) ‖ Ks(16).
const SetupPlaintextLen = 8 + aesutil.KeySize

// EncodeSetupPlaintext packs (nonce, Ks) for RSA encryption.
func EncodeSetupPlaintext(nonce keys.Nonce, ks aesutil.Key) []byte {
	out := make([]byte, SetupPlaintextLen)
	copy(out[:8], nonce[:])
	copy(out[8:], ks[:])
	return out
}

// DecodeSetupPlaintext reverses EncodeSetupPlaintext.
func DecodeSetupPlaintext(b []byte) (keys.Nonce, aesutil.Key, error) {
	if len(b) != SetupPlaintextLen {
		return keys.Nonce{}, aesutil.Key{}, ErrBadBody
	}
	var n keys.Nonce
	var k aesutil.Key
	copy(n[:], b[:8])
	copy(k[:], b[8:])
	return n, k, nil
}
