// Software AES-128 with a re-keyable, caller-owned key schedule: the AES of
// a session's first packets, and of nothing else.
//
// The neutralizer derives the session key Ks from the packet itself, so a
// packet of a flow no worker has seen before must key AES before its one
// block operation. An established flow does not: core's session cache
// holds a crypto/aes cipher per flow (Block; hardware AES, constant-time)
// and a hit costs one block operation, 16–30 ns. The cache is only worth
// filling for flows that repeat, and crypto/aes can neither be re-keyed in
// place nor keyed without allocating: measured with go1.24.0 on the
// 2-vCPU aes+avx2 host of PR 20, aes.NewCipher plus one block is
// 350–450 ns and one 512-byte object per packet (three objects, 544 B,
// 330–640 ns through the package-level EncryptAddr/DecryptAddr), against
// 200–330 ns and no allocation for Expand plus a block here. So the two
// implementations sit on either side of something the code observes —
// cache hit or miss — with a benchmark workload on each (core-flows,
// core-churn); this file is reached from the miss path, from E4's "first
// packet" row and from the harness's layer probes.
//
// FIPS-197 AES-128 with the expanded key schedule stored in a
// caller-owned ExpandedKey value: Expand writes the round keys in place
// and the block operations touch nothing but their arguments, so a
// per-worker scratch re-keys for every miss with zero allocations.
//
// The implementation is the classic four-T-table construction (the same
// shape as crypto/aes's generic fallback). Like that fallback it is not
// constant-time with respect to data-dependent table indices; the
// long-term master-key KDF stays on crypto/aes (see Block), and the paper
// already treats session keys as short-lived per-flow secrets.
package aesutil

import "net/netip"

// ExpandedKey is a caller-owned AES-128 key schedule. Expand may be called
// any number of times to re-key; the zero value is NOT usable until the
// first Expand. The decryption schedule is derived lazily on the first
// DecryptBlock after a re-key, so encrypt-only users (the return path)
// pay half the expansion cost.
type ExpandedKey struct {
	enc    [44]uint32
	dec    [44]uint32
	hasDec bool
}

const aesRounds = 10 // AES-128

var (
	sbox  [256]byte
	isbox [256]byte
	// Encryption tables: teN[x] is the MixColumns contribution of
	// sbox[x] in byte position N.
	te0, te1, te2, te3 [256]uint32
	// Decryption tables: tdN[x] is the InvMixColumns contribution of
	// isbox[x] in byte position N.
	td0, td1, td2, td3 [256]uint32
	rcon               [11]uint32
)

// gmul multiplies a and b in GF(2^8) with the AES polynomial 0x11b.
func gmul(a, b byte) byte {
	var p byte
	for b != 0 {
		if b&1 != 0 {
			p ^= a
		}
		hi := a & 0x80
		a <<= 1
		if hi != 0 {
			a ^= 0x1b
		}
		b >>= 1
	}
	return p
}

func init() {
	// S-box: multiplicative inverse in GF(2^8) followed by the affine
	// transform (FIPS-197 §5.1.1), built by table search at init time.
	var inv [256]byte
	for a := 1; a < 256; a++ {
		for b := 1; b < 256; b++ {
			if gmul(byte(a), byte(b)) == 1 {
				inv[a] = byte(b)
				break
			}
		}
	}
	for i := 0; i < 256; i++ {
		x := inv[i]
		s := x ^ rotl8(x, 1) ^ rotl8(x, 2) ^ rotl8(x, 3) ^ rotl8(x, 4) ^ 0x63
		sbox[i] = s
		isbox[s] = byte(i)
	}
	for i := 0; i < 256; i++ {
		s := sbox[i]
		// Column (2s, s, s, 3s) for MixColumns.
		w := uint32(gmul(s, 2))<<24 | uint32(s)<<16 | uint32(s)<<8 | uint32(gmul(s, 3))
		te0[i] = w
		te1[i] = rotr32(w, 8)
		te2[i] = rotr32(w, 16)
		te3[i] = rotr32(w, 24)
		is := isbox[i]
		// Column (14is, 9is, 13is, 11is) for InvMixColumns.
		v := uint32(gmul(is, 14))<<24 | uint32(gmul(is, 9))<<16 | uint32(gmul(is, 13))<<8 | uint32(gmul(is, 11))
		td0[i] = v
		td1[i] = rotr32(v, 8)
		td2[i] = rotr32(v, 16)
		td3[i] = rotr32(v, 24)
	}
	rc := uint32(1)
	for i := 1; i < len(rcon); i++ {
		rcon[i] = rc << 24
		rc = uint32(gmul(byte(rc), 2))
	}
}

func rotl8(x byte, n uint) byte { return x<<n | x>>(8-n) }
func rotr32(x, n uint32) uint32 { return x>>n | x<<(32-n) }
func subWord(w uint32) uint32 {
	return uint32(sbox[w>>24])<<24 | uint32(sbox[w>>16&0xff])<<16 |
		uint32(sbox[w>>8&0xff])<<8 | uint32(sbox[w&0xff])
}

// Expand (re)keys the schedule in place. It performs no allocation.
func (e *ExpandedKey) Expand(key Key) {
	enc := &e.enc
	for i := 0; i < 4; i++ {
		enc[i] = uint32(key[4*i])<<24 | uint32(key[4*i+1])<<16 | uint32(key[4*i+2])<<8 | uint32(key[4*i+3])
	}
	for i := 4; i < 44; i++ {
		t := enc[i-1]
		if i%4 == 0 {
			t = subWord(t<<8|t>>24) ^ rcon[i/4]
		}
		enc[i] = enc[i-4] ^ t
	}
	e.hasDec = false
}

// expandDec derives the decryption schedule (equivalent inverse cipher):
// round-key groups in reverse order, InvMixColumns applied to the
// interior rounds. td0[sbox[b]] is exactly the InvMixColumns column of b.
func (e *ExpandedKey) expandDec() {
	enc, dec := &e.enc, &e.dec
	for i := 0; i <= aesRounds; i++ {
		ei := 4 * (aesRounds - i)
		for j := 0; j < 4; j++ {
			w := enc[ei+j]
			if i > 0 && i < aesRounds {
				w = td0[sbox[w>>24]] ^ td1[sbox[w>>16&0xff]] ^ td2[sbox[w>>8&0xff]] ^ td3[sbox[w&0xff]]
			}
			dec[4*i+j] = w
		}
	}
	e.hasDec = true
}

// EncryptBlock encrypts one 16-byte block (dst and src may alias).
func (e *ExpandedKey) EncryptBlock(dst, src *[16]byte) {
	rk := &e.enc
	s0 := uint32(src[0])<<24 | uint32(src[1])<<16 | uint32(src[2])<<8 | uint32(src[3])
	s1 := uint32(src[4])<<24 | uint32(src[5])<<16 | uint32(src[6])<<8 | uint32(src[7])
	s2 := uint32(src[8])<<24 | uint32(src[9])<<16 | uint32(src[10])<<8 | uint32(src[11])
	s3 := uint32(src[12])<<24 | uint32(src[13])<<16 | uint32(src[14])<<8 | uint32(src[15])
	s0 ^= rk[0]
	s1 ^= rk[1]
	s2 ^= rk[2]
	s3 ^= rk[3]
	var t0, t1, t2, t3 uint32
	k := 4
	for r := 1; r < aesRounds; r++ {
		t0 = te0[s0>>24] ^ te1[s1>>16&0xff] ^ te2[s2>>8&0xff] ^ te3[s3&0xff] ^ rk[k]
		t1 = te0[s1>>24] ^ te1[s2>>16&0xff] ^ te2[s3>>8&0xff] ^ te3[s0&0xff] ^ rk[k+1]
		t2 = te0[s2>>24] ^ te1[s3>>16&0xff] ^ te2[s0>>8&0xff] ^ te3[s1&0xff] ^ rk[k+2]
		t3 = te0[s3>>24] ^ te1[s0>>16&0xff] ^ te2[s1>>8&0xff] ^ te3[s2&0xff] ^ rk[k+3]
		s0, s1, s2, s3 = t0, t1, t2, t3
		k += 4
	}
	// Final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns.
	t0 = uint32(sbox[s0>>24])<<24 | uint32(sbox[s1>>16&0xff])<<16 | uint32(sbox[s2>>8&0xff])<<8 | uint32(sbox[s3&0xff])
	t1 = uint32(sbox[s1>>24])<<24 | uint32(sbox[s2>>16&0xff])<<16 | uint32(sbox[s3>>8&0xff])<<8 | uint32(sbox[s0&0xff])
	t2 = uint32(sbox[s2>>24])<<24 | uint32(sbox[s3>>16&0xff])<<16 | uint32(sbox[s0>>8&0xff])<<8 | uint32(sbox[s1&0xff])
	t3 = uint32(sbox[s3>>24])<<24 | uint32(sbox[s0>>16&0xff])<<16 | uint32(sbox[s1>>8&0xff])<<8 | uint32(sbox[s2&0xff])
	t0 ^= rk[40]
	t1 ^= rk[41]
	t2 ^= rk[42]
	t3 ^= rk[43]
	putWord(dst, 0, t0)
	putWord(dst, 4, t1)
	putWord(dst, 8, t2)
	putWord(dst, 12, t3)
}

// DecryptBlock decrypts one 16-byte block (dst and src may alias).
func (e *ExpandedKey) DecryptBlock(dst, src *[16]byte) {
	if !e.hasDec {
		e.expandDec()
	}
	rk := &e.dec
	s0 := uint32(src[0])<<24 | uint32(src[1])<<16 | uint32(src[2])<<8 | uint32(src[3])
	s1 := uint32(src[4])<<24 | uint32(src[5])<<16 | uint32(src[6])<<8 | uint32(src[7])
	s2 := uint32(src[8])<<24 | uint32(src[9])<<16 | uint32(src[10])<<8 | uint32(src[11])
	s3 := uint32(src[12])<<24 | uint32(src[13])<<16 | uint32(src[14])<<8 | uint32(src[15])
	s0 ^= rk[0]
	s1 ^= rk[1]
	s2 ^= rk[2]
	s3 ^= rk[3]
	var t0, t1, t2, t3 uint32
	k := 4
	for r := 1; r < aesRounds; r++ {
		t0 = td0[s0>>24] ^ td1[s3>>16&0xff] ^ td2[s2>>8&0xff] ^ td3[s1&0xff] ^ rk[k]
		t1 = td0[s1>>24] ^ td1[s0>>16&0xff] ^ td2[s3>>8&0xff] ^ td3[s2&0xff] ^ rk[k+1]
		t2 = td0[s2>>24] ^ td1[s1>>16&0xff] ^ td2[s0>>8&0xff] ^ td3[s3&0xff] ^ rk[k+2]
		t3 = td0[s3>>24] ^ td1[s2>>16&0xff] ^ td2[s1>>8&0xff] ^ td3[s0&0xff] ^ rk[k+3]
		s0, s1, s2, s3 = t0, t1, t2, t3
		k += 4
	}
	t0 = uint32(isbox[s0>>24])<<24 | uint32(isbox[s3>>16&0xff])<<16 | uint32(isbox[s2>>8&0xff])<<8 | uint32(isbox[s1&0xff])
	t1 = uint32(isbox[s1>>24])<<24 | uint32(isbox[s0>>16&0xff])<<16 | uint32(isbox[s3>>8&0xff])<<8 | uint32(isbox[s2&0xff])
	t2 = uint32(isbox[s2>>24])<<24 | uint32(isbox[s1>>16&0xff])<<16 | uint32(isbox[s0>>8&0xff])<<8 | uint32(isbox[s3&0xff])
	t3 = uint32(isbox[s3>>24])<<24 | uint32(isbox[s2>>16&0xff])<<16 | uint32(isbox[s1>>8&0xff])<<8 | uint32(isbox[s0&0xff])
	t0 ^= rk[40]
	t1 ^= rk[41]
	t2 ^= rk[42]
	t3 ^= rk[43]
	putWord(dst, 0, t0)
	putWord(dst, 4, t1)
	putWord(dst, 8, t2)
	putWord(dst, 12, t3)
}

func putWord(dst *[16]byte, i int, w uint32) {
	dst[i] = byte(w >> 24)
	dst[i+1] = byte(w >> 16)
	dst[i+2] = byte(w >> 8)
	dst[i+3] = byte(w)
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
