// Package aesutil provides the symmetric primitives of the neutralizer
// data path, mirroring the paper's implementation choice of "128-bit AES
// for both hashing and encryption/decryption":
//
//   - a CBC-MAC keyed hash used as the key-derivation function
//     Ks = hash(KM, nonce, srcIP);
//   - single-block encryption of the hidden address field with a
//     per-packet salt and an embedded check value, so each data packet
//     costs exactly one AES block operation at the neutralizer;
//   - AES-CTR payload encryption for the end-to-end black box.
package aesutil

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// KeySize is the AES-128 key size in bytes.
const KeySize = 16

// BlockSize is the AES block size in bytes.
const BlockSize = aes.BlockSize

// Key is a 128-bit symmetric key.
type Key [KeySize]byte

// Errors returned by this package.
var (
	ErrCheckFailed = errors.New("aesutil: address block check value mismatch")
)

// addrBlockMagic is the known plaintext embedded in every address block
// ("neut"). A decryption under the wrong key yields an effectively random
// block, so the magic mismatches with probability 1 - 2^-32.
const addrBlockMagic = 'n'<<24 | 'e'<<16 | 'u'<<8 | 't'

// CBCMAC computes the AES-128 CBC-MAC of data under key, with zero IV and
// a length prefix, on a stack ExpandedKey: no allocation. The length prefix
// (rather than raw CBC-MAC) closes the classic variable-length extension
// weakness; all users of this function MAC short, structured inputs.
func CBCMAC(key Key, data []byte) Key {
	var ek ExpandedKey
	ek.Expand(key)
	mac := ek.MACPrefix(len(data))
	for len(data) > 0 {
		var chunk [BlockSize]byte // zero-padded to a whole block
		n := copy(chunk[:], data)
		subtle.XORBytes(mac[:], mac[:], chunk[:])
		ek.EncryptBlock(&mac, &mac)
		data = data[n:]
	}
	return Key(mac)
}

// MACPrefix returns the chaining value CBCMAC under e holds after the
// length block of an n-byte message. It depends only on the key and n, so
// a caller that MACs fixed-size messages under a long-lived key computes
// it once and absorbs each message's blocks from there.
func (e *ExpandedKey) MACPrefix(n int) (p [BlockSize]byte) {
	binary.BigEndian.PutUint64(p[:8], uint64(n))
	e.EncryptBlock(&p, &p)
	return p
}

// DeriveKey computes a keyed hash over the given parts with unambiguous
// framing (each part is length-prefixed). This is the paper's
// Ks = hash(KM, nonce, srcIP) with KM as the MAC key.
func DeriveKey(master Key, parts ...[]byte) Key {
	size := 0
	for _, p := range parts {
		size += 2 + len(p)
	}
	buf := make([]byte, 0, size)
	for _, p := range parts {
		var l [2]byte
		binary.BigEndian.PutUint16(l[:], uint16(len(p)))
		buf = append(buf, l[:]...)
		buf = append(buf, p...)
	}
	return CBCMAC(master, buf)
}

// AddrBlock is the 16-byte plaintext layout of the hidden-address field:
//
//	bytes 0..3   IPv4 address being hidden
//	bytes 4..11  per-packet salt (keeps equal addresses from producing
//	             equal ciphertexts across packets)
//	bytes 12..15 check value (known magic verified on decryption)
type AddrBlock [BlockSize]byte

// seal lays a out as an address-block plaintext; ok is false when a is
// not IPv4. The one place the layout is written.
func (pt *AddrBlock) seal(a netip.Addr, salt [8]byte) (ok bool) {
	if !a.Is4() {
		return false
	}
	a4 := a.As4()
	copy(pt[0:4], a4[:])
	copy(pt[4:12], salt[:])
	binary.BigEndian.PutUint32(pt[12:16], addrBlockMagic)
	return true
}

// open reads a decrypted address block; ok is false when the check value
// mismatches (wrong key, forged nonce, or corrupted block). The check is
// one word compare: nothing for timing to tell apart, and pt stays off
// crypto/subtle's slice interface, which would make it escape to the heap.
func (pt *AddrBlock) open() (a netip.Addr, salt [8]byte, ok bool) {
	if binary.BigEndian.Uint32(pt[12:16]) != addrBlockMagic {
		return netip.Addr{}, [8]byte{}, false
	}
	return netip.AddrFrom4([4]byte(pt[0:4])), [8]byte(pt[4:12]), true
}

// EncryptAddr encrypts addr into a single AES block under key using the
// given per-packet salt: a key expansion and one AES operation on a stack
// schedule. The end hosts' and the test oracles' form; the data path
// keeps its ExpandedKey.
func EncryptAddr(key Key, a netip.Addr, salt [8]byte) (AddrBlock, error) {
	var ek ExpandedKey
	ek.Expand(key)
	ct, ok := ek.EncryptAddrX(a, salt)
	if !ok {
		return AddrBlock{}, fmt.Errorf("aesutil: address %v is not IPv4", a)
	}
	return ct, nil
}

// DecryptAddr reverses EncryptAddr and validates the check value. A failed
// check means the wrong key was used (e.g. a forged or stale nonce) or the
// block was corrupted.
func DecryptAddr(key Key, ct AddrBlock) (netip.Addr, [8]byte, error) {
	var ek ExpandedKey
	ek.Expand(key)
	a, salt, ok := ek.DecryptAddrX(ct)
	if !ok {
		return netip.Addr{}, [8]byte{}, ErrCheckFailed
	}
	return a, salt, nil
}

// CTRCrypt encrypts or decrypts data in place with AES-CTR under key and
// a 16-byte IV derived from the caller-supplied 8-byte nonce (the same
// operation in both directions).
func CTRCrypt(key Key, nonce [8]byte, data []byte) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic(fmt.Sprintf("aesutil: %v", err))
	}
	var iv [BlockSize]byte
	copy(iv[:8], nonce[:])
	cipher.NewCTR(block, iv[:]).XORKeyStream(data, data)
}

// Equal compares two keys in constant time.
func Equal(a, b Key) bool {
	return subtle.ConstantTimeCompare(a[:], b[:]) == 1
}

// ExpandedKey is a caller-owned AES-128 key schedule: the one AES of the
// data path — the epoch master key's KDF, the session key of a flow's first
// packet and of its thousandth, the core's salt generator — and of CBCMAC.
// Expand may be called any number of times to re-key in place, the block
// operations touch nothing but their arguments, and none of it allocates.
// The zero value is NOT usable until the first Expand. The decryption
// schedule is derived lazily on the first DecryptBlock after a re-key, so
// encrypt-only users (the return path, the KDF) pay half the expansion
// cost.
//
// On amd64 with the AES instructions the body is aes_amd64.s (constant
// time, round keys in memory order; the expansion is PSHUFB + AESENCLAST
// per round); elsewhere, and under the purego tag, softaes.go (big-endian
// words). A process runs one of the two.
type ExpandedKey struct {
	enc    [44]uint32
	dec    [44]uint32
	hasDec bool
}

// Expand (re)keys the schedule in place.
func (e *ExpandedKey) Expand(key Key) {
	if !hasAESNI {
		e.expandSoft(key)
		return
	}
	expandEnc(&e.enc, &key)
	e.hasDec = false
}

// EncryptBlock encrypts one 16-byte block (dst and src may alias).
func (e *ExpandedKey) EncryptBlock(dst, src *[16]byte) {
	if !hasAESNI {
		e.encryptSoft(dst, src)
		return
	}
	encryptBlock(&e.enc, dst, src)
}

// DecryptBlock decrypts one 16-byte block (dst and src may alias).
func (e *ExpandedKey) DecryptBlock(dst, src *[16]byte) {
	if !hasAESNI {
		e.decryptSoft(dst, src)
		return
	}
	if !e.hasDec {
		expandDec(&e.dec, &e.enc)
		e.hasDec = true
	}
	decryptBlock(&e.dec, dst, src)
}

// EncryptAddrX is EncryptAddr on a pre-expanded key: one AES block
// operation and no allocation. The expanded key must hold the session key
// Ks the block is bound to. ok is false when a is not IPv4.
func (e *ExpandedKey) EncryptAddrX(a netip.Addr, salt [8]byte) (ct AddrBlock, ok bool) {
	var pt AddrBlock
	if !pt.seal(a, salt) {
		return AddrBlock{}, false
	}
	e.EncryptBlock((*[16]byte)(&ct), (*[16]byte)(&pt))
	return ct, true
}

// DecryptAddrX is DecryptAddr on a pre-expanded key: one AES block
// operation and no allocation. ok is false when the check value mismatches
// (wrong key, forged nonce, or corrupted block).
func (e *ExpandedKey) DecryptAddrX(ct AddrBlock) (a netip.Addr, salt [8]byte, ok bool) {
	var pt AddrBlock
	e.DecryptBlock((*[16]byte)(&pt), (*[16]byte)(&ct))
	return pt.open()
}
