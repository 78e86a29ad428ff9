// Package e2e is the end-to-end encryption black box of the design.
//
// The paper uses end-to-end encryption (e.g. IPsec) to hide packet
// contents and application types, and to return key grants from a
// destination to a source under strong protection ("e.g. 1024-bit RSA
// encryption"). This package provides a functional stand-in: RSA-1024
// (crypto/rsa) session establishment and AES-CTR + CBC-MAC sealed
// payloads. The neutralizer never sees inside these boxes; neither does a
// discriminatory ISP.
package e2e

import (
	"crypto/rand"
	"crypto/rsa"
	"crypto/subtle"
	"errors"
	"fmt"
	"io"
	"math/big"

	"netneutral/internal/crypto/aesutil"
)

// DefaultBits matches the paper's "strong" key size.
const DefaultBits = 1024

// seedLen is the session seed length carried in an offer.
const seedLen = 32

// boxOverhead is the framing added by Seal: nonce(8) + MAC(16).
const boxOverhead = 8 + aesutil.KeySize

// Errors returned by this package.
var (
	ErrBadOffer  = errors.New("e2e: malformed or undecryptable session offer")
	ErrBadBox    = errors.New("e2e: sealed box failed authentication")
	ErrShortBox  = errors.New("e2e: sealed box too short")
	ErrBadPubKey = errors.New("e2e: malformed public key encoding")
)

// Identity is a long-term end-host identity (the public key published in
// DNS per §3.1).
type Identity struct {
	key *rsa.PrivateKey
}

// NewIdentity generates an identity with the given modulus size
// (DefaultBits if <= 0).
func NewIdentity(rng io.Reader, bits int) (*Identity, error) {
	if bits <= 0 {
		bits = DefaultBits
	}
	if rng == nil {
		rng = rand.Reader
	}
	key, err := rsa.GenerateKey(rng, bits)
	if err != nil {
		return nil, fmt.Errorf("e2e: generating identity: %w", err)
	}
	return &Identity{key: key}, nil
}

// Public returns the identity's public half.
func (id *Identity) Public() PublicKey { return PublicKey{key: &id.key.PublicKey} }

// PublicKey is a peer's published key.
type PublicKey struct {
	key *rsa.PublicKey
}

// Valid reports whether the key is usable.
func (p PublicKey) Valid() bool { return p.key != nil }

// Marshal encodes the public key: 2-byte modulus length, modulus bytes,
// 4-byte exponent.
func (p PublicKey) Marshal() []byte {
	nb := p.key.N.Bytes()
	out := make([]byte, 2+len(nb)+4)
	out[0], out[1] = byte(len(nb)>>8), byte(len(nb))
	copy(out[2:], nb)
	e := p.key.E
	out[2+len(nb)] = byte(e >> 24)
	out[3+len(nb)] = byte(e >> 16)
	out[4+len(nb)] = byte(e >> 8)
	out[5+len(nb)] = byte(e)
	return out
}

// UnmarshalPublicKey reverses Marshal.
func UnmarshalPublicKey(data []byte) (PublicKey, error) {
	if len(data) < 2 {
		return PublicKey{}, ErrBadPubKey
	}
	n := int(data[0])<<8 | int(data[1])
	if n == 0 || len(data) < 2+n+4 {
		return PublicKey{}, ErrBadPubKey
	}
	N := new(big.Int).SetBytes(data[2 : 2+n])
	e := int(data[2+n])<<24 | int(data[3+n])<<16 | int(data[4+n])<<8 | int(data[5+n])
	if e < 3 {
		return PublicKey{}, ErrBadPubKey
	}
	return PublicKey{key: &rsa.PublicKey{N: N, E: e}}, nil
}

// Session is an established bidirectional encrypted channel. Sessions are
// symmetric: either side may Seal or Open.
type Session struct {
	enc aesutil.Key
	mac aesutil.Key
	rng io.Reader
}

// Initiate creates a session keyed by a fresh seed and the offer bytes
// that convey the seed to the responder under its public key.
func Initiate(rng io.Reader, peer PublicKey) (*Session, []byte, error) {
	if rng == nil {
		rng = rand.Reader
	}
	seed := make([]byte, seedLen)
	if _, err := io.ReadFull(rng, seed); err != nil {
		return nil, nil, fmt.Errorf("e2e: reading seed: %w", err)
	}
	offer, err := rsa.EncryptPKCS1v15(rng, peer.key, seed)
	if err != nil {
		return nil, nil, fmt.Errorf("e2e: encrypting offer: %w", err)
	}
	return sessionFromSeed(seed, rng), offer, nil
}

// Accept recovers the session from an offer addressed to id.
func Accept(id *Identity, offer []byte) (*Session, error) {
	seed, err := rsa.DecryptPKCS1v15(nil, id.key, offer)
	if err != nil || len(seed) != seedLen {
		return nil, ErrBadOffer
	}
	return sessionFromSeed(seed, rand.Reader), nil
}

// SessionFromSeed derives a session deterministically from a shared seed
// (at least 16 bytes). Both ends of the §3.3 reverse-direction bootstrap
// call this with the seed conveyed inside the key offer.
func SessionFromSeed(seed []byte, rng io.Reader) (*Session, error) {
	if len(seed) < aesutil.KeySize {
		return nil, ErrBadOffer
	}
	if rng == nil {
		rng = rand.Reader
	}
	return sessionFromSeed(seed, rng), nil
}

// EncryptSmall encrypts a short message directly under a peer's public
// key (PKCS#1 v1.5). Used for the reverse-direction first packet, where
// the customer conveys (nonce, Ks, epoch, session seed) to a destination
// that has no session yet.
func EncryptSmall(rng io.Reader, peer PublicKey, msg []byte) ([]byte, error) {
	if rng == nil {
		rng = rand.Reader
	}
	ct, err := rsa.EncryptPKCS1v15(rng, peer.key, msg)
	if err != nil {
		return nil, fmt.Errorf("e2e: %w", err)
	}
	return ct, nil
}

// DecryptSmall reverses EncryptSmall with the local identity.
func (id *Identity) DecryptSmall(ct []byte) ([]byte, error) {
	pt, err := rsa.DecryptPKCS1v15(nil, id.key, ct)
	if err != nil {
		return nil, ErrBadOffer
	}
	return pt, nil
}

func sessionFromSeed(seed []byte, rng io.Reader) *Session {
	var root aesutil.Key
	copy(root[:], seed[:aesutil.KeySize])
	return &Session{
		enc: aesutil.DeriveKey(root, []byte("e2e-enc"), seed),
		mac: aesutil.DeriveKey(root, []byte("e2e-mac"), seed),
		rng: rng,
	}
}

// Overhead is the number of bytes Seal adds to a plaintext.
const Overhead = boxOverhead

// Seal encrypts and authenticates plaintext:
//
//	box = nonce(8) ‖ AES-CTR(enc, nonce, plaintext) ‖ CBC-MAC(mac, nonce‖ct)
func (s *Session) Seal(plaintext []byte) ([]byte, error) {
	box := make([]byte, 8+len(plaintext)+aesutil.KeySize)
	if _, err := io.ReadFull(s.rng, box[:8]); err != nil {
		return nil, fmt.Errorf("e2e: reading nonce: %w", err)
	}
	ct := box[8 : 8+len(plaintext)]
	copy(ct, plaintext)
	var nonce [8]byte
	copy(nonce[:], box[:8])
	aesutil.CTRCrypt(s.enc, nonce, ct)
	tag := aesutil.CBCMAC(s.mac, box[:8+len(plaintext)])
	copy(box[8+len(plaintext):], tag[:])
	return box, nil
}

// Open verifies and decrypts a sealed box.
func (s *Session) Open(box []byte) ([]byte, error) {
	if len(box) < boxOverhead {
		return nil, ErrShortBox
	}
	body := box[:len(box)-aesutil.KeySize]
	tag := box[len(box)-aesutil.KeySize:]
	want := aesutil.CBCMAC(s.mac, body)
	if subtle.ConstantTimeCompare(tag, want[:]) != 1 {
		return nil, ErrBadBox
	}
	var nonce [8]byte
	copy(nonce[:], body[:8])
	pt := make([]byte, len(body)-8)
	copy(pt, body[8:])
	aesutil.CTRCrypt(s.enc, nonce, pt)
	return pt, nil
}
