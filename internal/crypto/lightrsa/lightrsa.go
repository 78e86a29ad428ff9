// Package lightrsa implements the short, low-exponent RSA used by the
// neutralizer's key-setup protocol.
//
// The paper's efficiency argument hinges on an asymmetry: the source
// generates a one-time short RSA key pair (e.g. 512 bits) and performs the
// slow decryption, while the neutralizer performs only an encryption with
// public exponent 3 — roughly two modular multiplications. A 512-bit key
// is weak (the paper equates it to a 56-bit symmetric key), which the
// protocol tolerates by using each key once and replacing the symmetric
// key it protected within two round-trip times.
//
// SECURITY: this is a paper-faithful artifact, NOT a recommendation.
// Textbook/short RSA with ad-hoc padding must never be used to protect
// real data. The package exists to reproduce the published design and its
// performance characteristics.
package lightrsa

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/bits"
)

// DefaultBits is the modulus size the paper evaluates (512-bit one-time keys).
const DefaultBits = 512

// PublicExponent is fixed at 3, the cheapest common RSA exponent: an
// encryption costs one squaring plus one multiplication.
const PublicExponent = 3

// Errors returned by this package.
var (
	ErrMessageTooLong = errors.New("lightrsa: message too long for modulus")
	ErrDecryption     = errors.New("lightrsa: decryption error")
	ErrKeyTooSmall    = errors.New("lightrsa: modulus too small")
	ErrBadKeyEncoding = errors.New("lightrsa: malformed public key encoding")
)

// PublicKey is an RSA public key with E = 3.
type PublicKey struct {
	N *big.Int
}

// PrivateKey is an RSA private key with CRT parameters for fast decryption.
type PrivateKey struct {
	PublicKey
	D    *big.Int
	P, Q *big.Int
	// CRT precomputation.
	dp, dq, qInv *big.Int
}

// Size returns the modulus size in bytes.
func (k *PublicKey) Size() int { return (k.N.BitLen() + 7) / 8 }

// GenerateKey creates a key pair with an n-bit modulus using entropy from
// rng. Primes are chosen so that 3 is coprime with φ(n).
func GenerateKey(rng io.Reader, bits int) (*PrivateKey, error) {
	if bits < 128 {
		return nil, ErrKeyTooSmall
	}
	e := big.NewInt(PublicExponent)
	one := big.NewInt(1)
	for {
		p, err := rand.Prime(rng, bits/2)
		if err != nil {
			return nil, fmt.Errorf("lightrsa: generating p: %w", err)
		}
		q, err := rand.Prime(rng, bits-bits/2)
		if err != nil {
			return nil, fmt.Errorf("lightrsa: generating q: %w", err)
		}
		if p.Cmp(q) == 0 {
			continue
		}
		pm1 := new(big.Int).Sub(p, one)
		qm1 := new(big.Int).Sub(q, one)
		phi := new(big.Int).Mul(pm1, qm1)
		if new(big.Int).Mod(phi, e).Sign() == 0 {
			continue // e shares a factor with φ(n); re-draw
		}
		n := new(big.Int).Mul(p, q)
		if n.BitLen() != bits {
			continue
		}
		d := new(big.Int).ModInverse(e, phi)
		if d == nil {
			continue
		}
		key := &PrivateKey{
			PublicKey: PublicKey{N: n},
			D:         d,
			P:         p,
			Q:         q,
			dp:        new(big.Int).Mod(d, pm1),
			dq:        new(big.Int).Mod(d, qm1),
			qInv:      new(big.Int).ModInverse(q, p),
		}
		return key, nil
	}
}

// EncryptRaw performs the textbook RSA operation m^3 mod N on a message
// already formatted as a full-size block. Used by benchmarks to isolate
// the neutralizer-side cost.
func (k *PublicKey) EncryptRaw(block []byte) ([]byte, error) {
	m := new(big.Int).SetBytes(block)
	if m.Cmp(k.N) >= 0 {
		return nil, ErrMessageTooLong
	}
	c := new(big.Int).Exp(m, big.NewInt(PublicExponent), k.N)
	return leftPad(c.Bytes(), k.Size()), nil
}

// Encrypt encrypts msg with randomized padding:
//
//	0x00 0x02 <nonzero random padding> 0x00 <msg>
//
// The layout follows PKCS#1 v1.5 block type 2 so that low-exponent attacks
// on tiny unpadded messages don't trivially apply; with e=3 and a one-time
// key this matches the paper's security budget (and its caveats).
func (k *PublicKey) Encrypt(rng io.Reader, msg []byte) ([]byte, error) {
	size := k.Size()
	if len(msg) > size-11 {
		return nil, ErrMessageTooLong
	}
	block := make([]byte, size)
	block[0] = 0x00
	block[1] = 0x02
	ps := block[2 : size-len(msg)-1]
	if err := fillNonZero(rng, ps); err != nil {
		return nil, err
	}
	block[size-len(msg)-1] = 0x00
	copy(block[size-len(msg):], msg)
	return k.EncryptRaw(block)
}

// Decrypt reverses Encrypt using CRT exponentiation (the slow, source-side
// operation).
func (k *PrivateKey) Decrypt(ct []byte) ([]byte, error) {
	c := new(big.Int).SetBytes(ct)
	if c.Cmp(k.N) >= 0 {
		return nil, ErrDecryption
	}
	m := k.decryptCRT(c)
	block := leftPad(m.Bytes(), k.Size())
	// Unpad: 0x00 0x02 PS 0x00 msg
	if block[0] != 0x00 || block[1] != 0x02 {
		return nil, ErrDecryption
	}
	idx := -1
	for i := 2; i < len(block); i++ {
		if block[i] == 0x00 {
			idx = i
			break
		}
	}
	if idx < 10 { // at least 8 bytes of padding required
		return nil, ErrDecryption
	}
	return block[idx+1:], nil
}

// decryptCRT computes c^d mod N via the Chinese Remainder Theorem.
func (k *PrivateKey) decryptCRT(c *big.Int) *big.Int {
	m1 := new(big.Int).Exp(c, k.dp, k.P)
	m2 := new(big.Int).Exp(c, k.dq, k.Q)
	h := new(big.Int).Sub(m1, m2)
	h.Mod(h, k.P)
	h.Mul(h, k.qInv)
	h.Mod(h, k.P)
	m := new(big.Int).Mul(h, k.Q)
	m.Add(m, m2)
	return m
}

// Marshal encodes the public key for the wire: 2-byte big-endian modulus
// length followed by the modulus bytes. The exponent is implicitly 3.
func (k *PublicKey) Marshal() []byte {
	nb := k.N.Bytes()
	out := make([]byte, 2+len(nb))
	out[0] = byte(len(nb) >> 8)
	out[1] = byte(len(nb))
	copy(out[2:], nb)
	return out
}

// UnmarshalPublicKey reverses Marshal. It returns the number of bytes
// consumed so callers can parse keys embedded in larger messages. Every
// refusal is decided on the bytes, before anything is allocated.
func UnmarshalPublicKey(data []byte) (*PublicKey, int, error) {
	if len(data) < 2 {
		return nil, 0, ErrBadKeyEncoding
	}
	n := int(data[0])<<8 | int(data[1])
	if n == 0 || len(data) < 2+n {
		return nil, 0, ErrBadKeyEncoding
	}
	mod := bytes.TrimLeft(data[2:2+n], "\x00")
	if len(mod) == 0 || 8*len(mod)-bits.LeadingZeros8(mod[0]) < 128 {
		return nil, 0, ErrKeyTooSmall
	}
	return &PublicKey{N: new(big.Int).SetBytes(mod)}, 2 + n, nil
}

func leftPad(b []byte, size int) []byte {
	if len(b) >= size {
		return b
	}
	out := make([]byte, size)
	copy(out[size-len(b):], b)
	return out
}

func fillNonZero(rng io.Reader, out []byte) error {
	if rng == nil {
		rng = rand.Reader
	}
	buf := make([]byte, len(out)+8)
	i := 0
	for i < len(out) {
		if _, err := io.ReadFull(rng, buf); err != nil {
			return fmt.Errorf("lightrsa: reading entropy: %w", err)
		}
		for _, b := range buf {
			if b != 0 {
				out[i] = b
				i++
				if i == len(out) {
					break
				}
			}
		}
	}
	return nil
}
