// Software AES-128 for ExpandedKey: the fallback where the CPU has no AES
// instructions or under the purego build tag (aes_amd64.s is the body
// that runs otherwise).
//
// The classic four-T-table construction, the same shape as crypto/aes's
// generic fallback, and like it not constant-time with respect to
// data-dependent table indices. Where it runs, the master-key KDF runs on
// it too, as it would on crypto/aes's own table fallback.
package aesutil

import "encoding/binary"

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
	// transform (FIPS-197 §5.1.1). 3 generates the multiplicative group
	// and 0xf6 is its inverse, so p = 3^i against q = 3^-i visits every
	// (x, 1/x).
	var inv [256]byte
	for p, q, i := byte(1), byte(1), 0; i < 255; i++ {
		inv[p] = q
		p, q = gmul(p, 3), gmul(q, 0xf6)
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

// expandSoft is Expand on the tables: round keys as big-endian words.
func (e *ExpandedKey) expandSoft(key Key) {
	enc := &e.enc
	for i := 0; i < 4; i++ {
		enc[i] = binary.BigEndian.Uint32(key[4*i:])
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

// expandDecSoft derives the decryption schedule (equivalent inverse cipher):
// round-key groups in reverse order, InvMixColumns applied to the
// interior rounds. td0[sbox[b]] is exactly the InvMixColumns column of b.
func (e *ExpandedKey) expandDecSoft() {
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

// encryptSoft is EncryptBlock on the tables.
func (e *ExpandedKey) encryptSoft(dst, src *[16]byte) {
	rk := &e.enc
	s0 := binary.BigEndian.Uint32(src[0:]) ^ rk[0]
	s1 := binary.BigEndian.Uint32(src[4:]) ^ rk[1]
	s2 := binary.BigEndian.Uint32(src[8:]) ^ rk[2]
	s3 := binary.BigEndian.Uint32(src[12:]) ^ rk[3]
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
	binary.BigEndian.PutUint32(dst[0:], t0^rk[40])
	binary.BigEndian.PutUint32(dst[4:], t1^rk[41])
	binary.BigEndian.PutUint32(dst[8:], t2^rk[42])
	binary.BigEndian.PutUint32(dst[12:], t3^rk[43])
}

// decryptSoft is DecryptBlock on the tables.
func (e *ExpandedKey) decryptSoft(dst, src *[16]byte) {
	if !e.hasDec {
		e.expandDecSoft()
	}
	rk := &e.dec
	s0 := binary.BigEndian.Uint32(src[0:]) ^ rk[0]
	s1 := binary.BigEndian.Uint32(src[4:]) ^ rk[1]
	s2 := binary.BigEndian.Uint32(src[8:]) ^ rk[2]
	s3 := binary.BigEndian.Uint32(src[12:]) ^ rk[3]
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
	binary.BigEndian.PutUint32(dst[0:], t0^rk[40])
	binary.BigEndian.PutUint32(dst[4:], t1^rk[41])
	binary.BigEndian.PutUint32(dst[8:], t2^rk[42])
	binary.BigEndian.PutUint32(dst[12:], t3^rk[43])
}
